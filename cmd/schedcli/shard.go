package main

// The shard subcommand is the cluster-scale face of the sweep engine:
//
//	schedcli shard plan  -in instances/ -shards 4 -policy hash -out-dir plans/
//	schedcli shard merge -plan plans/plan.json -out fronts.jsonl s0.jsonl s1.jsonl s2.jsonl s3.jsonl
//	schedcli shard exec  -in instances/ -shards 4 -out fronts.jsonl
//
// plan deterministically places every *.json item of a directory onto
// K shards (round-robin or hash-affine — the latter routes identical
// items to the same shard, keeping shard-local caches hot) and writes
// plan.json plus one shard-<k>.list file per shard. Each list is a
// valid `sweepbatch -in` input, so the shards can run as independent
// `schedcli sweepbatch` processes on any machines. merge interleaves
// the per-shard JSONL outputs back into the plan's input order,
// relabelling each line's local index with its global one — the result
// is byte-identical to an unsharded sweep of the directory. exec is
// the one-machine convenience that does all three steps, driving one
// sweepbatch subprocess per shard.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	sched "storagesched"
	"storagesched/internal/serve"
	"storagesched/internal/shard"
)

// tailWriter retains the last max bytes written through it — enough of
// a shard subprocess's stderr to attach as a hint when it fails.
type tailWriter struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

// stderrHint renders the last non-empty stderr line as an error
// suffix, or nothing when the subprocess was silent.
func stderrHint(t *tailWriter) string {
	t.mu.Lock()
	tail := strings.TrimSpace(string(t.buf))
	t.mu.Unlock()
	if tail == "" {
		return ""
	}
	if i := strings.LastIndexByte(tail, '\n'); i >= 0 {
		tail = strings.TrimSpace(tail[i+1:])
	}
	return " (stderr: " + tail + ")"
}

// countOutputLines counts the non-empty lines of a shard's JSONL
// output — zero with items planned means the subprocess died before
// writing anything, a shard-level failure rather than item failures.
func countOutputLines(path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		// The subprocess died before creating its output at all.
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			n++
		}
	}
	return n, sc.Err()
}

func runShard(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("shard: need a verb: plan | merge | exec")
	}
	switch args[0] {
	case "plan":
		return runShardPlan(args[1:], w)
	case "merge":
		return runShardMerge(args[1:], w)
	case "exec":
		return runShardExec(args[1:], w)
	}
	return fmt.Errorf("shard: unknown verb %q (want plan | merge | exec)", args[0])
}

// planFile is the on-disk shard plan: enough to reconstruct the
// placement and to relabel shard-local output indexes to global ones.
type planFile struct {
	Shards int            `json:"shards"`
	Policy string         `json:"policy"`
	Items  []planItemJSON `json:"items"`
}

type planItemJSON struct {
	Index  int    `json:"index"`
	Shard  int    `json:"shard"`
	Source string `json:"source"`
}

// planDirectory builds the deterministic plan of a directory's *.json
// items (the same sorted set `sweepbatch -in dir` sweeps).
func planDirectory(inDir string, shards int, policyName string) (*shard.Plan, []string, error) {
	policy, err := sched.ParseShardPolicy(policyName)
	if err != nil {
		return nil, nil, err
	}
	info, err := os.Stat(inDir)
	if err != nil {
		return nil, nil, err
	}
	if !info.IsDir() {
		return nil, nil, fmt.Errorf("shard plan: -in must be a directory, got %s", inDir)
	}
	names, err := filepath.Glob(filepath.Join(inDir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no *.json instances in %s", inDir)
	}
	items := make([]sched.BatchItem, len(names))
	for i, name := range names {
		items[i] = fileItem(name)
	}
	plan, err := sched.NewShardPlan(shards, policy, items)
	if err != nil {
		return nil, nil, err
	}
	return plan, names, nil
}

// writePlan materializes plan.json and the per-shard .list files under
// outDir and returns the list paths.
func writePlan(plan *shard.Plan, names []string, outDir string) (planPath string, listPaths []string, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", nil, err
	}
	pf := planFile{Shards: plan.K, Policy: plan.Policy.String()}
	for i, s := range plan.Shards {
		pf.Items = append(pf.Items, planItemJSON{Index: i, Shard: s, Source: names[i]})
	}
	planPath = filepath.Join(outDir, "plan.json")
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(planPath, append(data, '\n'), 0o644); err != nil {
		return "", nil, err
	}
	for s, local := range plan.Locals() {
		var buf []byte
		for _, g := range local {
			buf = append(buf, names[g]...)
			buf = append(buf, '\n')
		}
		path := filepath.Join(outDir, "shard-"+strconv.Itoa(s)+".list")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return "", nil, err
		}
		listPaths = append(listPaths, path)
	}
	return planPath, listPaths, nil
}

// runShardPlan implements `schedcli shard plan`.
func runShardPlan(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("shard plan", flag.ContinueOnError)
	inDir := fs.String("in", "", "directory of *.json instances/graphs to place")
	shards := fs.Int("shards", 2, "number of shards")
	policy := fs.String("policy", "hash", "placement policy: rr | hash")
	outDir := fs.String("out-dir", ".", "directory for plan.json and shard-<k>.list files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inDir == "" {
		return fmt.Errorf("shard plan: -in is required")
	}
	plan, names, err := planDirectory(*inDir, *shards, *policy)
	if err != nil {
		return err
	}
	planPath, listPaths, err := writePlan(plan, names, *outDir)
	if err != nil {
		return err
	}
	counts := plan.Counts()
	fmt.Fprintf(w, "planned %d items onto %d shards (%s): %v\n", len(names), plan.K, plan.Policy, counts)
	fmt.Fprintf(w, "plan: %s\n", planPath)
	for s, p := range listPaths {
		fmt.Fprintf(w, "shard %d: %s (%d items)\n", s, p, counts[s])
	}
	return nil
}

// readPlan loads a plan.json back into a shard.Plan plus the source
// paths in global order.
func readPlan(path string) (*shard.Plan, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var pf planFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, nil, fmt.Errorf("shard: decoding plan %s: %w", path, err)
	}
	if pf.Shards < 1 {
		return nil, nil, fmt.Errorf("shard: plan %s has %d shards", path, pf.Shards)
	}
	policy, err := sched.ParseShardPolicy(pf.Policy)
	if err != nil {
		return nil, nil, err
	}
	plan := &shard.Plan{K: pf.Shards, Policy: policy, Shards: make([]int, len(pf.Items))}
	names := make([]string, len(pf.Items))
	for i, it := range pf.Items {
		if it.Index != i {
			return nil, nil, fmt.Errorf("shard: plan %s item %d has index %d (must be dense and ordered)", path, i, it.Index)
		}
		plan.Shards[i] = it.Shard
		names[i] = it.Source
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, fmt.Errorf("shard: plan %s: %w", path, err)
	}
	return plan, names, nil
}

// mergeOutputs interleaves the shard JSONL files back into global
// order, relabelling local indexes, and reports how many merged lines
// carry per-item errors.
func mergeOutputs(plan *shard.Plan, shardFiles []string, out io.Writer) (failed int, err error) {
	readers := make([]io.Reader, len(shardFiles))
	closers := make([]io.Closer, 0, len(shardFiles))
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for i, name := range shardFiles {
		f, err := os.Open(name)
		if err != nil {
			return 0, err
		}
		readers[i] = f
		closers = append(closers, f)
	}
	err = shard.MergeJSONL(out, plan, readers, func(line []byte, g int) ([]byte, error) {
		var fl serve.FrontLine
		if err := json.Unmarshal(line, &fl); err != nil {
			return nil, err
		}
		fl.Index = g
		if fl.Error != "" {
			failed++
		}
		// Re-encode with the same struct and marshaller sweepbatch
		// uses, so the merged line is byte-identical to the line an
		// unsharded run would have written.
		return json.Marshal(fl)
	})
	return failed, err
}

// runShardMerge implements `schedcli shard merge`.
func runShardMerge(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("shard merge", flag.ContinueOnError)
	planPath := fs.String("plan", "", "plan.json written by shard plan")
	outPath := fs.String("out", "", "merged JSONL output (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *planPath == "" {
		return fmt.Errorf("shard merge: -plan is required")
	}
	plan, _, err := readPlan(*planPath)
	if err != nil {
		return err
	}
	shardFiles := fs.Args()
	if len(shardFiles) != plan.K {
		return fmt.Errorf("shard merge: %d shard outputs for %d shards (pass one JSONL per shard, in shard order)", len(shardFiles), plan.K)
	}
	out := w
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		outFile = f
		out = f
	}
	failed, err := mergeOutputs(plan, shardFiles, out)
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("shard merge: %d of %d items failed (see the error lines in the output)", failed, len(plan.Shards))
	}
	return nil
}

// runShardExec implements `schedcli shard exec`: plan a directory,
// drive one `sweepbatch` subprocess per shard concurrently, then merge
// — the single-machine rehearsal of the cluster flow.
func runShardExec(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("shard exec", flag.ContinueOnError)
	inDir := fs.String("in", "", "directory of *.json instances/graphs")
	shards := fs.Int("shards", 2, "number of shards / subprocesses")
	policy := fs.String("policy", "hash", "placement policy: rr | hash")
	outPath := fs.String("out", "", "merged JSONL output (default: stdout)")
	bin := fs.String("bin", "", "schedcli binary to drive (default: this executable)")
	workDir := fs.String("work-dir", "", "directory for plans and per-shard outputs (default: a temp dir, removed afterwards)")
	workers := fs.Int("workers", 0, "pool size per shard (0 = one per CPU)")
	cacheDir := fs.String("cache-dir", "", "front cache directory shared by the shard subprocesses")
	params := serve.RegisterSweepFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inDir == "" {
		return fmt.Errorf("shard exec: -in is required")
	}
	// Check the sweep here, once, rather than in every subprocess: a bad
	// grid then fails with its own message, not as shards that wrote
	// no output.
	if _, err := params.Spec(); err != nil {
		return fmt.Errorf("shard exec: %w", err)
	}
	if *bin == "" {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("shard exec: cannot locate this executable (pass -bin): %w", err)
		}
		*bin = self
	}
	dir := *workDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "schedcli-shard-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	plan, names, err := planDirectory(*inDir, *shards, *policy)
	if err != nil {
		return err
	}
	_, listPaths, err := writePlan(plan, names, dir)
	if err != nil {
		return err
	}

	// One sweepbatch subprocess per shard, concurrently. Stderr passes
	// through (with a bounded tail retained per shard, for failure
	// hints); an item-failure exit (the subprocess still wrote its
	// error lines) does not abort the merge, matching unsharded
	// behavior where bad items fail alone.
	shardFiles := make([]string, plan.K)
	cmdErrs := make([]error, plan.K)
	elapsed := make([]time.Duration, plan.K)
	tails := make([]*tailWriter, plan.K)
	var wg sync.WaitGroup
	for s := 0; s < plan.K; s++ {
		shardFiles[s] = filepath.Join(dir, "shard-"+strconv.Itoa(s)+".jsonl")
		sargs := append([]string{"sweepbatch",
			"-in", listPaths[s],
			"-out", shardFiles[s],
			"-workers", strconv.Itoa(*workers),
		}, params.Args()...)
		if *cacheDir != "" {
			sargs = append(sargs, "-cache-dir", *cacheDir)
		}
		tails[s] = &tailWriter{max: 4096}
		wg.Add(1)
		go func(s int, sargs []string) {
			defer wg.Done()
			cmd := exec.Command(*bin, sargs...)
			cmd.Stderr = io.MultiWriter(os.Stderr, tails[s])
			start := time.Now()
			cmdErrs[s] = cmd.Run()
			elapsed[s] = time.Since(start)
		}(s, sargs)
	}
	wg.Wait()

	// Classify each shard's exit before merging. A nonzero exit whose
	// output still covers the shard's items means per-item failures —
	// those ride in the output lines and surface after the merge, like
	// an unsharded batch. A signal kill or an exit that wrote nothing
	// is a shard-level failure: merging would only report "output ended
	// before item N" and mask the real cause, so report the status and
	// the stderr tail instead. Either way the per-shard summary line —
	// items, outcome, wall clock — goes to stderr so the merged JSONL
	// on stdout stays byte-identical to an unsharded sweep.
	counts := plan.Counts()
	for s, err := range cmdErrs {
		if err == nil {
			fmt.Fprintf(os.Stderr, "shard %d: %d items ok in %s\n", s, counts[s], elapsed[s].Round(time.Millisecond))
			continue
		}
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			return fmt.Errorf("shard exec: shard %d: %w", s, err)
		}
		if exitErr.ExitCode() == -1 {
			return fmt.Errorf("shard exec: shard %d killed by a signal (%v)%s", s, exitErr, stderrHint(tails[s]))
		}
		if n, cerr := countOutputLines(shardFiles[s]); cerr == nil && n == 0 && counts[s] > 0 {
			return fmt.Errorf("shard exec: shard %d wrote no output (exit status %d)%s", s, exitErr.ExitCode(), stderrHint(tails[s]))
		}
		fmt.Fprintf(os.Stderr, "shard %d: %d items, exit status %d (per-item failures ride in the output) in %s\n",
			s, counts[s], exitErr.ExitCode(), elapsed[s].Round(time.Millisecond))
	}

	out := w
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		outFile = f
		out = f
	}
	failed, err := mergeOutputs(plan, shardFiles, out)
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("shard exec: %d of %d items failed (see the error lines in the output)", failed, len(plan.Shards))
	}
	return nil
}

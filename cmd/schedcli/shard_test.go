package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mixedDir writes a directory with instances, a graph and (optionally)
// a broken file — the workload the shard smoke paths sweep.
func mixedDir(t *testing.T, withBad bool) string {
	t.Helper()
	dir := writeInstanceDir(t, 4)
	writeGraph(t, dir, "apipeline.graph.json")
	// A duplicate of inst00 under another name: hash-affine placement
	// must route it to the same shard as the original.
	src, err := os.ReadFile(filepath.Join(dir, "inst00.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zdup00.json"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if withBad {
		if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{nope"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// sweepDir runs runSweepBatch over dir with the given extra flags and
// returns the raw JSONL output and error.
func sweepDir(t *testing.T, dir string, extra ...string) (string, error) {
	t.Helper()
	var buf strings.Builder
	args := append([]string{"-in", dir, "-dmin", "0.5", "-dmax", "8", "-points", "6"}, extra...)
	err := runSweepBatch(args, nil, &buf)
	return buf.String(), err
}

// Cold and warm cache runs are byte-identical, entries land on disk,
// and a corrupt entry heals transparently.
func TestRunSweepBatchCacheColdWarmByteIdentical(t *testing.T) {
	dir := mixedDir(t, false)
	cacheDir := filepath.Join(t.TempDir(), "fronts")

	cold, err := sweepDir(t, dir, "-cache-dir", cacheDir)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	keys, _ := cacheEntries(t, cacheDir)
	if len(keys) == 0 {
		t.Fatal("no cache entries written")
	}
	warm, err := sweepDir(t, dir, "-cache-dir", cacheDir)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if cold != warm {
		t.Errorf("cold and warm outputs differ:\n%s\nvs\n%s", cold, warm)
	}
	// Corrupt one entry; the run still matches and heals it.
	plantEntries(t, cacheDir, keys[:1], [][]byte{[]byte("garbage")})
	healed, err := sweepDir(t, dir, "-cache-dir", cacheDir)
	if err != nil {
		t.Fatalf("healed: %v", err)
	}
	if healed != cold {
		t.Error("output differs after entry corruption")
	}
	// Memory-only caching works too (second run within one process is
	// not observable here, but the flag path must not error).
	if _, err := sweepDir(t, dir, "-cache-mem", "64"); err != nil {
		t.Fatalf("-cache-mem: %v", err)
	}
}

// The cluster flow by hand: plan a directory, sweep each shard list as
// its own runSweepBatch call, merge — byte-identical to unsharded for
// K ∈ {1, 2, 4} under both policies, including the broken file's
// per-item error line.
func TestShardPlanSweepMergeRoundTrip(t *testing.T) {
	dir := mixedDir(t, true)
	want, wantErr := sweepDir(t, dir)
	if wantErr == nil {
		t.Fatal("unsharded run with a broken file reported success")
	}
	for _, policy := range []string{"rr", "hash"} {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", policy, k), func(t *testing.T) {
				planDir := t.TempDir()
				var planOut strings.Builder
				err := runShard([]string{"plan", "-in", dir, "-shards", fmt.Sprint(k), "-policy", policy, "-out-dir", planDir}, &planOut)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				for _, wantLine := range []string{fmt.Sprintf("planned 7 items onto %d shards (%s)", k, policy), "plan.json"} {
					if !strings.Contains(planOut.String(), wantLine) {
						t.Errorf("plan output missing %q:\n%s", wantLine, planOut.String())
					}
				}
				if policy == "hash" {
					checkDuplicateShared(t, filepath.Join(planDir, "plan.json"))
				}

				// Sweep each shard list separately, as subprocesses
				// would; the shard holding the broken file reports it.
				var shardFiles []string
				failed := 0
				for s := 0; s < k; s++ {
					list := filepath.Join(planDir, fmt.Sprintf("shard-%d.list", s))
					var buf strings.Builder
					if err := runSweepBatch([]string{"-in", list, "-dmin", "0.5", "-dmax", "8", "-points", "6"}, nil, &buf); err != nil {
						failed++
					}
					out := filepath.Join(planDir, fmt.Sprintf("shard-%d.jsonl", s))
					if err := os.WriteFile(out, []byte(buf.String()), 0o644); err != nil {
						t.Fatal(err)
					}
					shardFiles = append(shardFiles, out)
				}
				if failed != 1 {
					t.Errorf("%d shard sweeps failed, want exactly the broken file's", failed)
				}

				merged := filepath.Join(planDir, "merged.jsonl")
				args := append([]string{"merge", "-plan", filepath.Join(planDir, "plan.json"), "-out", merged}, shardFiles...)
				if err := runShard(args, io.Discard); err == nil || !strings.Contains(err.Error(), "1 of 7 items failed") {
					t.Errorf("merge: err = %v, want the merged per-item failure summary", err)
				}
				got, err := os.ReadFile(merged)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != want {
					t.Errorf("merged output differs from unsharded:\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// checkDuplicateShared asserts the hash-affine plan put the duplicate
// instance on its original's shard.
func checkDuplicateShared(t *testing.T, planPath string) {
	t.Helper()
	planBytes, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	plan := string(planBytes)
	shardOf := func(source string) string {
		t.Helper()
		i := strings.Index(plan, source)
		if i < 0 {
			t.Fatalf("plan.json lacks %s:\n%s", source, plan)
		}
		// "shard": N precedes "source" in each item object.
		head := plan[:i]
		j := strings.LastIndex(head, `"shard": `)
		return head[j+len(`"shard": `) : j+len(`"shard": `)+1]
	}
	if shardOf("inst00.json") != shardOf("zdup00.json") {
		t.Error("hash-affine plan split identical items across shards")
	}
}

// More shards than items: the empty shard's .list is a valid empty
// batch, its output is empty, and the merge still reproduces the
// unsharded sweep.
func TestShardPlanWithEmptyShard(t *testing.T) {
	dir := writeInstanceDir(t, 1)
	want, err := sweepDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	planDir := t.TempDir()
	if err := runShard([]string{"plan", "-in", dir, "-shards", "2", "-policy", "rr", "-out-dir", planDir}, io.Discard); err != nil {
		t.Fatalf("plan: %v", err)
	}
	var shardFiles []string
	for s := 0; s < 2; s++ {
		list := filepath.Join(planDir, fmt.Sprintf("shard-%d.list", s))
		var buf strings.Builder
		if err := runSweepBatch([]string{"-in", list, "-dmin", "0.5", "-dmax", "8", "-points", "6"}, nil, &buf); err != nil {
			t.Fatalf("shard %d sweep: %v", s, err)
		}
		out := filepath.Join(planDir, fmt.Sprintf("shard-%d.jsonl", s))
		if err := os.WriteFile(out, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		shardFiles = append(shardFiles, out)
	}
	merged := filepath.Join(planDir, "merged.jsonl")
	args := append([]string{"merge", "-plan", filepath.Join(planDir, "plan.json"), "-out", merged}, shardFiles...)
	if err := runShard(args, io.Discard); err != nil {
		t.Fatalf("merge: %v", err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("merged output differs from unsharded:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestShardRejectsBadInputs(t *testing.T) {
	if err := runShard(nil, os.Stdout); err == nil {
		t.Error("missing verb accepted")
	}
	if err := runShard([]string{"bogus"}, os.Stdout); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := runShard([]string{"plan"}, os.Stdout); err == nil {
		t.Error("plan without -in accepted")
	}
	if err := runShard([]string{"plan", "-in", writeInstance(t)}, os.Stdout); err == nil {
		t.Error("plan over a non-directory accepted")
	}
	if err := runShard([]string{"merge"}, os.Stdout); err == nil {
		t.Error("merge without -plan accepted")
	}
	dir := writeInstanceDir(t, 2)
	if err := runShard([]string{"plan", "-in", dir, "-policy", "bogus", "-out-dir", t.TempDir()}, io.Discard); err == nil {
		t.Error("plan with a bogus placement policy accepted")
	}
	planDir := t.TempDir()
	if err := runShard([]string{"plan", "-in", dir, "-shards", "2", "-out-dir", planDir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	// Wrong shard-output count.
	if err := runShard([]string{"merge", "-plan", filepath.Join(planDir, "plan.json")}, os.Stdout); err == nil {
		t.Error("merge with no shard outputs accepted")
	}
	// exec checks the sweep before it plans or spawns anything: the
	// error names the bad parameter, though no subprocess could run.
	noBin := filepath.Join(t.TempDir(), "missing-schedcli")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-points", "0"}, "invalid grid"},
		{[]string{"-no-sbo", "-no-rls"}, "both algorithm families skipped"},
		{[]string{"-points", "5000"}, "points=5000: above the limit of 4096"},
	} {
		args := append([]string{"exec", "-in", dir, "-bin", noBin, "-work-dir", t.TempDir()}, c.args...)
		err := runShard(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("shard exec %v: error %v, want one naming %q", c.args, err, c.want)
		}
	}
}

// The full subprocess flow: shard exec drives one real `schedcli
// sweepbatch` process per shard and merges. Builds the binary once
// with the local toolchain.
func TestShardExecSubprocesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "schedcli")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Skipf("cannot build schedcli binary: %v", err)
	}

	dir := mixedDir(t, false)
	want, err := sweepDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	stderr := captureStderr(t, func() {
		err = runShard([]string{"exec",
			"-in", dir, "-shards", "2", "-policy", "hash",
			"-out", merged, "-bin", bin,
			"-dmin", "0.5", "-dmax", "8", "-points", "6",
		}, os.Stdout)
	})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	// Each shard reports its item count and wall clock on stderr.
	for s := 0; s < 2; s++ {
		if !strings.Contains(stderr, fmt.Sprintf("shard %d: ", s)) || !strings.Contains(stderr, " items ok in ") {
			t.Errorf("missing per-shard summary for shard %d:\n%s", s, stderr)
		}
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("exec-merged output differs from unsharded:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// writeFakeBin materializes an executable shell script standing in for
// the schedcli binary, so exit classification is tested without a build.
func writeFakeBin(t *testing.T, script string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fakecli")
	if err := os.WriteFile(bin, []byte("#!/bin/sh\n"+script), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin
}

// The exit-classification satellite: a subprocess that dies without
// writing output is a shard-level failure reported with its exit
// status and a stderr hint — not mislabelled as per-item failures and
// not left to surface as an opaque merge error.
func TestShardExecClassifiesSilentExit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := writeInstanceDir(t, 2)
	bin := writeFakeBin(t, `echo "boom: disk full" >&2; exit 3`)
	err := runShard([]string{"exec", "-in", dir, "-shards", "2", "-policy", "rr", "-bin", bin}, io.Discard)
	if err == nil {
		t.Fatal("silent nonzero exit reported success")
	}
	for _, want := range []string{"exit status 3", "wrote no output", "boom: disk full"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestShardExecClassifiesSignalKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := writeInstanceDir(t, 2)
	bin := writeFakeBin(t, `echo "going down" >&2; kill -KILL $$`)
	err := runShard([]string{"exec", "-in", dir, "-shards", "2", "-policy", "rr", "-bin", bin}, io.Discard)
	if err == nil {
		t.Fatal("signal-killed subprocess reported success")
	}
	for _, want := range []string{"killed by a signal", "going down"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// A nonzero exit whose output still covers the shard's items keeps the
// old behavior: the per-item error lines merge and surface afterwards.
func TestShardExecItemFailuresStillMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := writeInstanceDir(t, 2)
	// The fake bin writes one (bogus) line per planned item, then fails
	// like sweepbatch does when items failed. Parse -in/-out by position:
	// args are: sweepbatch -in LIST -out OUT ...
	bin := writeFakeBin(t, `
list=$3; out=$5
: > "$out"
while read -r src; do
  printf '{"index":0,"source":"%s","error":"injected"}\n' "$src" >> "$out"
done < "$list"
exit 1`)
	err := runShard([]string{"exec", "-in", dir, "-shards", "2", "-policy", "rr", "-bin", bin}, io.Discard)
	if err == nil {
		t.Fatal("per-item failures reported success")
	}
	if !strings.Contains(err.Error(), "2 of 2 items failed") {
		t.Errorf("error %q, want the merged per-item failure summary", err)
	}
}

package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// instanceJSON is the on-disk form of an Instance, kept separate from
// the in-memory type so the wire format can stay stable. Reading goes
// through the Decoder instead (decode.go).
type instanceJSON struct {
	M     int    `json:"m"`
	Tasks []Task `json:"tasks"`
}

// WriteJSON encodes the instance to w with indentation.
func (in *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(instanceJSON{M: in.M, Tasks: in.Tasks})
}

// ReadInstanceJSON decodes the first document of r as an instance and
// validates it; anything after that document is ignored.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var doc Doc
	if err := NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", err)
	}
	return doc.Instance()
}

// scheduleJSON is the on-disk form of a Schedule.
type scheduleJSON struct {
	M     int    `json:"m"`
	Proc  []int  `json:"proc"`
	Start []Time `json:"start"`
	P     []Time `json:"p"`
	S     []Mem  `json:"s"`
}

// WriteJSON encodes the schedule to w with indentation.
func (sc *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scheduleJSON{M: sc.M, Proc: sc.Proc, Start: sc.Start, P: sc.P, S: sc.S})
}

// ReadScheduleJSON decodes a schedule from r.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) {
	var sj scheduleJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("model: decoding schedule: %w", err)
	}
	return &Schedule{M: sj.M, Proc: sj.Proc, Start: sj.Start, P: sj.P, S: sj.S}, nil
}

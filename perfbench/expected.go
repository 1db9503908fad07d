package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"strconv"

	positdebug "positdebug"
	"positdebug/internal/server"
	"positdebug/internal/shadow"
)

// expectedRun is the reference outcome of one program: the result bit
// pattern, instruction counts, and the shadow detections by kind.
type expectedRun struct {
	Value      string         `json:"value"`
	Steps      int64          `json:"steps"`
	BaseSteps  int64          `json:"base_steps"`
	Detections map[string]int `json:"detections,omitempty"`
}

// expectedFile holds the references the benchmark checks against: the
// four benchmark kernels (warm-session shadow runs under product defaults)
// and the 32 suite programs as the server answers them under its default
// configuration.
type expectedFile struct {
	Kernels map[string]expectedRun `json:"kernels"`
	Suite   map[string]expectedRun `json:"suite"`
}

//go:embed expected.json
var expectedJSON []byte

var expected expectedFile

func loadExpected() error {
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if len(expected.Kernels) != len(benchKernels) || len(expected.Suite) != len(suitePrograms()) {
		return fmt.Errorf("expected.json covers %d kernels and %d suite programs, want %d and %d",
			len(expected.Kernels), len(expected.Suite), len(benchKernels), len(suitePrograms()))
	}
	return nil
}

func hexBits(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

func detectionMap(s *shadow.Summary) map[string]int {
	if s == nil || len(s.Counts) == 0 {
		return nil
	}
	m := make(map[string]int, len(s.Counts))
	for k, n := range s.Counts {
		if n > 0 {
			m[k.String()] = n
		}
	}
	return m
}

// checkRun compares one shadow-run outcome with its reference.
func checkRun(want expectedRun, value uint64, steps int64, det map[string]int) error {
	if got := hexBits(value); got != want.Value {
		return fmt.Errorf("value %s, want %s", got, want.Value)
	}
	if steps != want.Steps {
		return fmt.Errorf("steps %d, want %d", steps, want.Steps)
	}
	if !maps.Equal(det, want.Detections) {
		return fmt.Errorf("detections %v, want %v", det, want.Detections)
	}
	return nil
}

// writeExpectedFile regenerates expected.json on standard output: kernels
// from warm sessions on the default engine, suite programs from an
// in-process server with the default configuration.
func writeExpectedFile() error {
	out := expectedFile{Kernels: map[string]expectedRun{}, Suite: map[string]expectedRun{}}
	for _, ks := range benchKernels {
		src, err := ks.source()
		if err != nil {
			return err
		}
		p, err := positdebug.Compile(src)
		if err != nil {
			return err
		}
		d, err := p.Session()
		if err != nil {
			return err
		}
		res, err := d.Exec("main")
		if err != nil {
			return err
		}
		base, err := p.Exec("main", positdebug.WithBaseline())
		if err != nil {
			return err
		}
		out.Kernels[ks.Name] = expectedRun{Value: hexBits(res.Value), Steps: res.Steps, BaseSteps: base.Steps, Detections: detectionMap(res.Summary)}
	}
	h := server.New(server.Config{}).Handler()
	for _, sp := range suitePrograms() {
		var resp server.RunResponse
		body, _ := json.Marshal(server.RunRequest{Source: sp.Source}) // strings and bools always marshal
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
		if w.Code != 200 {
			return fmt.Errorf("%s: status %d: %s", sp.Name, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return err
		}
		p, err := positdebug.Compile(sp.Source)
		if err != nil {
			return err
		}
		base, err := p.Exec("main", positdebug.WithBaseline())
		if err != nil {
			return err
		}
		if hexBits(base.Value) != resp.Value {
			return fmt.Errorf("%s: served value %s, baseline %s", sp.Name, resp.Value, hexBits(base.Value))
		}
		out.Suite[sp.Name] = expectedRun{Value: resp.Value, Steps: resp.Steps, BaseSteps: base.Steps, Detections: resp.Detections}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}

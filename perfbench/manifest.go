package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"rocc/internal/core"
	"rocc/internal/scenario"
)

// manifest identifies what a run measured: inputs, host and build.
type manifest struct {
	Seed              uint64
	NProc, GOMAXPROCS int
	Workers           int
	GoVersion         string
	Revision          string
	ConfigFingerprint string
	Calendars         map[string]int // resolved event-list kind -> jobs
}

func newManifest(seed uint64, workers int, cfgs []core.Config, counted []jobResult) manifest {
	m := manifest{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Calendars:  map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
		if rev != "" {
			m.Revision = rev + modified
		}
	}
	h := sha256.New()
	for _, cfg := range cfgs {
		// The scenario spec plus the fields it does not carry.
		spec, err := json.Marshal(scenario.FromConfig(cfg))
		if err != nil {
			spec = []byte(err.Error())
		}
		faults, err := json.Marshal(cfg.Faults)
		if err != nil {
			faults = []byte(err.Error())
		}
		fmt.Fprintf(h, "%s seed=%d overflow=%v faults=%s\n", spec, cfg.Seed, cfg.Overflow, faults)
	}
	m.ConfigFingerprint = hex.EncodeToString(h.Sum(nil))[:16]
	for _, j := range counted {
		m.Calendars[j.counters.Calendar]++
	}
	return m
}

func (m manifest) print(w io.Writer) {
	var cals []string
	for k, v := range m.Calendars {
		cals = append(cals, fmt.Sprintf("%s:%d", k, v))
	}
	sort.Strings(cals)
	fmt.Fprintf(w, "manifest: seed=%d nproc=%d gomaxprocs=%d workers=%d go=%s revision=%s config_fingerprint=%s calendars=%s\n",
		m.Seed, m.NProc, m.GOMAXPROCS, m.Workers, m.GoVersion, m.Revision, m.ConfigFingerprint, strings.Join(cals, ","))
}

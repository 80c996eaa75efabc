package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/mcc"
	"repro/internal/memsys"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/static"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/verify"
)

// sweepSpec is the sweep workload's grammar string: every corpus class,
// count programs per class, both paper ISAs, every bus width and wait
// states 0-3, cacheless.
func sweepSpec(seed int64, count int) string {
	return fmt.Sprintf("classes=%s count=%d seed=%d isa=d16,dlxe bus=2,4,8 waits=0-3",
		strings.Join(synth.Classes(), ","), count, seed)
}

// sweepPass runs spec through sweep.Runner on lab, as `repro -sweep`
// does, streaming the surface to dir/sweep.mcst. It returns the pass
// stats and the path of the written surface. A failing program counts
// as a failed result.
func sweepPass(lab *core.Lab, specStr, dir string) (*passStats, string, error) {
	spec, err := sweep.Parse(specStr)
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "sweep.mcst")
	r := &sweep.Runner{Lab: lab, FailDir: filepath.Join(dir, "sweep-failures"), Errw: os.Stderr}
	start := time.Now()
	sum, err := r.Run(spec, path)
	if err != nil {
		return nil, "", err
	}
	st := &passStats{Points: sum.Points, Results: sum.Passed, Attempted: sum.Programs}
	st.batchDone(time.Since(start))
	for _, f := range sum.Failures {
		st.fail("%s [%s]: %s", f.Name, f.Stage, firstLine(f.Err))
	}
	pts, err := store.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	if n := len(store.Canon(pts)); n != sum.Points {
		st.fail("store: surface holds %d points, sweep reported %d", n, sum.Points)
	}
	return st, path, nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// flushPrograms is how many programs' points the sweep runner appends
// to its store file per block.
const flushPrograms = 32

// replaySweep regenerates the sweep's corpus and replays it one layer at
// a time, timing each layer as a span under parent. The replayed surface
// must match the pass's surface at passPath point for point. wallS is
// the untraced pass time trace.coverage divides by.
func replaySweep(t *tracer, parent, specStr, passPath string, wallS float64, dir string) (map[string]float64, error) {
	spec, err := sweep.Parse(specStr)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	layer := func(name string, fn func() error) {
		if err == nil {
			out[name], err = t.layer(parent, strings.TrimSuffix(name, "_s"), fn)
		}
	}

	var progs []*synth.Program
	layer("synth.generate_s", func() error {
		for _, class := range spec.Classes {
			for i := 0; i < spec.Count; i++ {
				p, e := synth.Generate(class, spec.ProgramSeed(class, i))
				if e != nil {
					return e
				}
				progs = append(progs, p)
			}
		}
		return nil
	})

	// One image per (program, config), program-major as the runner
	// enumerates them.
	type unit struct {
		prog *synth.Program
		cfg  int
		text string
		img  *prog.Image
	}
	var units []*unit
	for _, p := range progs {
		for c := range spec.Configs {
			units = append(units, &unit{prog: p, cfg: c})
		}
	}
	layer("mcc.genasm_s", func() error {
		for _, u := range units {
			var e error
			if u.text, _, e = mcc.GenAsm(u.prog.Name+".mc", u.prog.Source, spec.Configs[u.cfg]); e != nil {
				return fmt.Errorf("%s: %w", u.prog.Name, e)
			}
		}
		return nil
	})
	out["mcc.compiles"] = float64(len(units))
	layer("asm.assemble_s", func() error {
		for _, u := range units {
			var e error
			if u.img, e = asm.Assemble(u.prog.Name+".mc.s", u.text, spec.Configs[u.cfg]); e != nil {
				return fmt.Errorf("%s: %w", u.prog.Name, e)
			}
			u.text = ""
		}
		return nil
	})
	layer("verify.image_s", func() error {
		for _, u := range units {
			if rep := verify.Image(u.img, spec.Configs[u.cfg]); !rep.OK() {
				return fmt.Errorf("%s: %w", u.prog.Name, rep.Err())
			}
		}
		return nil
	})
	layer("static.analyze_s", func() error {
		for _, u := range units {
			if _, e := static.Analyze(u.img, spec.Configs[u.cfg]); e != nil {
				return fmt.Errorf("%s: %w", u.prog.Name, e)
			}
		}
		return nil
	})
	layer("decode.predecode_s", func() error {
		for _, u := range units {
			decode.Decode(u.img)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	bare := make([]simRun, len(units))
	observed := make([]simRun, len(units))
	profiles := make([]*core.BusProfile, len(units))
	for i, u := range units {
		bare[i] = simRun{img: u.img, max: spec.MaxInstrs}
		p := &core.BusProfile{
			Bench: u.prog.Name, Spec: spec.Configs[u.cfg], BusBytes: spec.Bus,
			SizeBytes: u.img.Size(), TextBytes: len(u.img.Text), StaticInstrs: u.img.TextInstrs,
		}
		for _, w := range spec.Bus {
			p.Buses = append(p.Buses, memsys.NewNoCache(w))
		}
		profiles[i] = p
		observed[i] = simRun{img: u.img, max: spec.MaxInstrs, attach: func(m *sim.Machine) error {
			for _, n := range p.Buses {
				m.Attach(n)
			}
			return nil
		}}
	}
	var bareSecs []float64
	var instrs int64
	layer("sim.run_s", func() error {
		var stats []sim.Stats
		var e error
		bareSecs, stats, e = runAll(bare)
		for _, s := range stats {
			instrs += s.Instrs
		}
		return e
	})
	layer("memsys.observe_s", func() error {
		_, stats, e := runAll(observed)
		for i, s := range stats {
			profiles[i].Stats = s
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	out["memsys.observe_s"] -= sum(bareSecs)
	out["sim.instrs"] = float64(instrs)
	out["sim.minstr_per_s"] = float64(instrs) / out["sim.run_s"] / 1e6

	path := filepath.Join(dir, "replay.mcst")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	layer("store.write_s", func() error {
		var pending []store.Point
		for i, p := range profiles {
			pending = append(pending, p.Points(spec.Waits)...)
			last := i == len(profiles)-1
			if (i+1)%(flushPrograms*len(spec.Configs)) == 0 || last {
				if e := store.AppendFile(path, store.Canon(pending)); e != nil {
					return e
				}
				pending = pending[:0]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	out["store.bytes"] = float64(fi.Size())
	same, err := sameSurface(path, passPath)
	if err != nil {
		return nil, err
	}
	if !same {
		return nil, fmt.Errorf("store: replayed surface differs from the pass's %s", passPath)
	}

	covered := 0.0
	for _, name := range []string{"synth.generate_s", "mcc.genasm_s", "asm.assemble_s", "verify.image_s",
		"static.analyze_s", "decode.predecode_s", "sim.run_s", "memsys.observe_s", "store.write_s"} {
		covered += out[name]
	}
	out["trace.coverage"] = covered / wallS
	return out, nil
}

// sameSurface reports whether two store files hold the same canonical
// point set, compared as the bytes store.Write makes of each.
func sameSurface(a, b string) (bool, error) {
	var bufs [2]bytes.Buffer
	for i, path := range []string{a, b} {
		pts, err := store.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := store.Write(&bufs[i], store.Canon(pts)); err != nil {
			return false, err
		}
	}
	return bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()), nil
}

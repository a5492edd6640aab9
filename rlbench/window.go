package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// A timed phase is cut into windows of equal work (a fixed op count),
// and each end-to-end timing is the median of its per-window values,
// so a few seconds of interference move one window, not the figure.
// Every few ops the calibration kernel runs once; the ops between two
// kernel runs form a block, and each block's times are normalised by
// the mean of the kernel times at its two ends. The kernel's own time
// is excluded from the ops' wall and CPU time.

// probe is one kernel run between ops.
type probe struct {
	ops       int           // ops done before it
	k         time.Duration // kernel time
	wall, cpu time.Duration // op time since the previous probe of the window
	first     bool          // opens a window
	last      bool          // closes a window
}

type windows struct {
	cal    *calibrator
	size   int // ops per window
	every  int // ops per block; divides size
	from   int // first op of the open window
	open   bool
	probes []probe
	t      time.Time // end of the previous probe
	c      time.Duration
}

// newWindows sizes the probe buffer before set-up, for a phase of at
// most maxOps ops.
func newWindows(cal *calibrator, size, every, maxOps int) windows {
	return windows{cal: cal, size: size, every: every, probes: make([]probe, 0, maxOps/every+2*maxOps/size+4)}
}

// bytes is the heap the windows' own buffers hold.
func (w *windows) bytes() int { return int(unsafe.Sizeof(probe{}))*cap(w.probes) + w.cal.bytes() }

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe times the ops since the previous probe, then the kernel.
func (w *windows) probe(ops int, first, last bool) {
	p := probe{ops: ops, first: first, last: last}
	if !first {
		p.wall, p.cpu = time.Since(w.t), cpuTime()-w.c
	}
	p.k = w.cal.once()
	w.probes = append(w.probes, p)
	w.t, w.c = time.Now(), cpuTime()
}

// begin opens a window at op count ops.
func (w *windows) begin(ops int) {
	w.from, w.open = ops, true
	w.probe(ops, true, false)
}

// step is called after each op with the op count so far. It probes at
// block ends and reports true when the op closed the window; the caller
// then begins the next window, after any work that is not to be timed.
func (w *windows) step(ops int) bool {
	if !w.open || (ops-w.from)%w.every != 0 {
		return false
	}
	closed := ops-w.from == w.size
	w.probe(ops, false, closed)
	w.open = !closed
	return closed
}

// fill reports, as medians over the complete windows, plan_p50_ms,
// plan_p90_ms, plans_per_s and cpu_ms_per_op, normalised block by
// block, with the window count as base; the raw medians go in as
// raw.<name>. extra names further percentiles for the detail line only.
// lat holds every op's latency in op order; it stays unsorted.
func (w *windows) fill(r *report, lat []int64, extra ...float64) error {
	pcts := append([]float64{0.5, 0.9}, extra...)
	units := map[string]string{"plans_per_s": "1/s", "cpu_ms_per_op": "ms"}
	raw, norm := map[string][]float64{}, map[string][]float64{}
	var factors []float64
	var start int // index of the open window's first probe
	for i, p := range w.probes {
		if p.first {
			start = i
		}
		if !p.last {
			continue
		}
		// One complete window: probes start..i.
		n := p.ops - w.probes[start].ops
		rawLat, normLat := make([]int64, 0, n), make([]int64, 0, n)
		var wall, cpu, nwall, ncpu, ksum float64
		for j := start + 1; j <= i; j++ {
			a, b := w.probes[j-1], w.probes[j]
			f := factor((a.k + b.k) / 2)
			ksum += f
			for _, v := range lat[a.ops:b.ops] {
				rawLat = append(rawLat, v)
				normLat = append(normLat, int64(float64(v)*f))
			}
			wall, cpu = wall+b.wall.Seconds(), cpu+float64(b.cpu)/1e6
			nwall, ncpu = nwall+b.wall.Seconds()*f, ncpu+float64(b.cpu)/1e6*f
		}
		factors = append(factors, ksum/float64(i-start))
		slices.Sort(rawLat)
		slices.Sort(normLat)
		var p50 [2]float64
		for _, pct := range pcts {
			rv, ok := percentile(rawLat, pct)
			nv, _ := percentile(normLat, pct)
			if !ok {
				return fmt.Errorf("a window of %d plans leaves fewer than %d beyond %s", n, minBeyond, pctName(pct))
			}
			name := "plan_" + pctName(pct) + "_ms"
			units[name] = "ms"
			raw[name], norm[name] = append(raw[name], ms(rv)), append(norm[name], ms(nv))
			if pct == 0.5 {
				p50 = [2]float64{ms(rv), ms(nv)}
			}
		}
		r.Windows = append(r.Windows, [3]float64{p50[0], p50[1], factors[len(factors)-1]})
		raw["plans_per_s"], norm["plans_per_s"] = append(raw["plans_per_s"], float64(n)/wall), append(norm["plans_per_s"], float64(n)/nwall)
		raw["cpu_ms_per_op"], norm["cpu_ms_per_op"] = append(raw["cpu_ms_per_op"], cpu/float64(n)), append(norm["cpu_ms_per_op"], ncpu/float64(n))
	}
	if len(factors) == 0 {
		return fmt.Errorf("no complete measurement window")
	}
	base := int64(len(factors))
	for name, unit := range units {
		r.Metrics[name] = metric{Value: medianFloat(norm[name]), Unit: unit, Base: &base}
		r.Metrics["raw."+name] = metric{Value: medianFloat(raw[name]), Unit: unit, Base: &base}
	}
	r.Metrics["calib.factor"] = metric{Value: medianFloat(factors), Unit: "ratio", Base: &base}
	r.Notes["windows"] = fmt.Sprintf("%d windows of %d plans, kernel every %d", len(factors), w.size, w.every)
	return nil
}

// medianFloat is the median of vs (the mean of the middle two for an
// even count); vs is sorted in place.
func medianFloat(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// repeatSetup runs a set-up n times and keeps the last state. setup_s is
// the median set-up time, normalised by the calibration kernel measured
// before and after the set-ups; raw.setup_s is the time as measured.
func repeatSetup[S any](r *report, cal *calibrator, n int, setup func() (S, error)) (S, error) {
	var st S
	k0 := cal.measure()
	ns := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, err
		}
		ns = append(ns, int64(time.Since(t0)))
		r.SetupMs = append(r.SetupMs, ms(ns[i]))
	}
	f := factor((k0 + cal.measure()) / 2)
	base := int64(n)
	raw := float64(median(ns)) / 1e9
	r.Metrics["setup_s"] = metric{Value: raw * f, Unit: "s", Base: &base}
	r.Metrics["raw.setup_s"] = metric{Value: raw, Unit: "s", Base: &base}
	return st, nil
}

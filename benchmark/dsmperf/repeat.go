package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), which is what the driver's acceptance rule uses.
func quartiles(values []float64) [3]float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	var q [3]float64
	if len(s) < 2 {
		if len(s) == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// bounds reads each end-to-end metric's regression bound from the
// BENCHMARK.json in the working directory.
func bounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("the noise report compares with the bounds in BENCHMARK.json; run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// noiseReport runs the workload n times on fresh beds, with seeds
// o.seed, o.seed+1, ..., and prints for each end-to-end metric every
// run's value, the median, the quartiles and the interquartile range
// as a share of the median beside the metric's bound.
func noiseReport(out io.Writer, w workload, o options, n int) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	runs := map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := runEndToEnd(io.Discard, w, o)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, o.seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): result check failed or ops failed (%d of %d)", i, o.seed, res.Failed, res.Attempted)
		}
		for name, v := range res.Metrics {
			runs[name] = append(runs[name], v.Value)
		}
		o.seed++
	}
	fmt.Fprintf(out, "%s: %d runs of %.0f s\n", w.name, n, o.seconds)
	for _, m := range endToEnd {
		v := runs[m.name]
		q := quartiles(v)
		spread := (q[2] - q[0]) / q[1]
		verdict := "within a third of the bound"
		switch {
		case spread > bound[m.name]:
			verdict = "ABOVE THE BOUND"
		case spread > bound[m.name]/3:
			verdict = "above a third of the bound"
		}
		fmt.Fprintf(out, "  %-10s %-4s runs=%.4g\n", m.name, m.unit, v)
		fmt.Fprintf(out, "  %-10s      median=%.4g q1=%.4g q3=%.4g IQR/median=%.4f bound=%.2f (%s)\n",
			"", q[1], q[0], q[2], spread, bound[m.name], verdict)
	}
	return nil
}

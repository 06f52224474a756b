package telemetry

// This file is the read side of the registry: a consistent point-in-time
// snapshot structure, the Prometheus text-format encoder behind /metrics,
// and the JSON encoder behind /debug/vars. Snapshots read each atomic once;
// they never block writers.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SeriesSnapshot is one instrument's state at snapshot time.
type SeriesSnapshot struct {
	// Labels is the canonical `{k="v",...}` rendering ("" when unlabeled).
	Labels string `json:"labels,omitempty"`
	// Value carries a counter's count or a gauge's level.
	Value float64 `json:"value"`
	// Count/Sum/Bounds/Cumulative are histogram-only: observation count,
	// value sum, bucket upper bounds and CUMULATIVE per-bound counts.
	Count      uint64    `json:"count,omitempty"`
	Sum        float64   `json:"sum,omitempty"`
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []uint64  `json:"cumulative,omitempty"`
}

// FamilySnapshot is one metric name with all its series.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every registered metric, sorted by name (series sorted
// by label set). It is safe to call concurrently with instrument updates.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]FamilySnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		for _, s := range f.series {
			ss := SeriesSnapshot{Labels: s.labels}
			switch m := s.metric.(type) {
			case *Counter:
				ss.Value = float64(m.Value())
			case *Gauge:
				ss.Value = m.Value()
			case *GaugeFunc:
				ss.Value = m.Value()
			case *Histogram:
				ss.Bounds, ss.Cumulative, ss.Count = m.load()
				ss.Sum = m.Sum()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# HELP` / `# TYPE` header per family, then
// every series; histograms expand to `_bucket{le=...}`, `_sum` and
// `_count`. Output is byte-stable for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Series {
			if err := writePromSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSeries(w io.Writer, f FamilySnapshot, s SeriesSnapshot) error {
	if f.Type != TypeHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, s.Labels, formatValue(s.Value))
		return err
	}
	for i, bound := range s.Bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.Name, withLabel(s.Labels, "le", formatValue(bound)), s.Cumulative[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.Name, withLabel(s.Labels, "le", "+Inf"), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, s.Labels, formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, s.Labels, s.Count)
	return err
}

// withLabel splices one more label into an already-rendered label set.
func withLabel(rendered, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(rendered, "}") + "," + extra + "}"
}

// formatValue renders a float the way Prometheus clients expect: integral
// values without an exponent, NaN/Inf spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the full snapshot as indented JSON — the /debug/vars
// payload, convenient for jq-driven spot checks without a Prometheus
// scraper in the loop.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

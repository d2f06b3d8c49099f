package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, families sorted by
// name across all metric kinds, histogram buckets cumulative with an +Inf
// terminator. The output is a pure function of the snapshot, so /metrics
// responses are diff-able across runs and PRs.
func WritePrometheus(w io.Writer, s Snapshot) error {
	type family struct {
		name string
		emit func(io.Writer) error
	}
	var fams []family
	for _, p := range s.Counters {
		p := p
		name := SanitizeName(p.Name)
		fams = append(fams, family{name: name, emit: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, p.Value)
			return err
		}})
	}
	for _, p := range s.Gauges {
		p := p
		name := SanitizeName(p.Name)
		fams = append(fams, family{name: name, emit: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, p.Value)
			return err
		}})
	}
	for _, h := range s.Histograms {
		h := h
		name := SanitizeName(h.Name)
		fams = append(fams, family{name: name, emit: func(w io.Writer) error {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			cum := int64(0)
			for i, b := range h.Bounds {
				cum += h.Buckets[i]
				le := escapeLabel(fmt.Sprintf("%d", b))
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
			return err
		}})
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.emit(w); err != nil {
			return err
		}
	}
	return nil
}

// SanitizeName maps a metric name into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every invalid rune with '_'.
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// jsonHistogram is the /metrics?format=json histogram shape.
type jsonHistogram struct {
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
}

// jsonSnapshot is the /metrics?format=json document. Map keys are sorted by
// the encoder, so the document is deterministic.
type jsonSnapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]jsonHistogram `json:"histograms,omitempty"`
}

// WriteJSON renders the snapshot as one indented JSON document.
func WriteJSON(w io.Writer, s Snapshot) error {
	doc := jsonSnapshot{}
	if len(s.Counters) > 0 {
		doc.Counters = make(map[string]int64, len(s.Counters))
		for _, p := range s.Counters {
			doc.Counters[p.Name] = p.Value
		}
	}
	if len(s.Gauges) > 0 {
		doc.Gauges = make(map[string]int64, len(s.Gauges))
		for _, p := range s.Gauges {
			doc.Gauges[p.Name] = p.Value
		}
	}
	if len(s.Histograms) > 0 {
		doc.Histograms = make(map[string]jsonHistogram, len(s.Histograms))
		for _, h := range s.Histograms {
			doc.Histograms[h.Name] = jsonHistogram{
				Bounds: h.Bounds, Buckets: h.Buckets, Count: h.Count, Sum: h.Sum,
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

package telemetry

import (
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

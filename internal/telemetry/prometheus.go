package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), stdlib-only. Metric
// names are the registry names with every non-[a-zA-Z0-9_] character
// mapped to '_', prefixed "insitubits_":
//
//	counters    insitubits_<name>_total                  counter
//	gauges      insitubits_<name>                        gauge
//	            insitubits_<name>_max                    gauge (watermark)
//	histograms  insitubits_<name>{quantile="0.5|0.9|0.99"}  summary
//	            insitubits_<name>_sum / _count
//
// docs/OBSERVABILITY.md carries the full catalog.

const promPrefix = "insitubits_"

// promName sanitizes a registry name into a Prometheus metric name.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promLabel escapes a label value per the exposition format.
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// WritePrometheus writes a point-in-time snapshot of the registry in
// Prometheus text exposition format v0.0.4. Nil-safe (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot in text exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	if len(s.BuildInfo) > 0 {
		m := promPrefix + "build_info"
		labels := make([]string, 0, len(s.BuildInfo))
		for _, k := range names(s.BuildInfo) {
			labels = append(labels, fmt.Sprintf("%s=\"%s\"", promName(k)[len(promPrefix):], promLabel(s.BuildInfo[k])))
		}
		bw.printf("# TYPE %s gauge\n%s{%s} 1\n", m, m, strings.Join(labels, ","))
	}
	for _, name := range names(s.Counters) {
		m := promName(name) + "_total"
		bw.printf("# TYPE %s counter\n%s %d\n", m, m, s.Counters[name])
	}
	for _, name := range names(s.Gauges) {
		g := s.Gauges[name]
		m := promName(name)
		bw.printf("# TYPE %s gauge\n%s %d\n", m, m, g.Value)
		bw.printf("# TYPE %s_max gauge\n%s_max %d\n", m, m, g.Max)
	}
	for _, name := range names(s.Histograms) {
		h := s.Histograms[name]
		m := promName(name)
		bw.printf("# TYPE %s summary\n", m)
		bw.printf("%s{quantile=\"0.5\"} %d\n", m, h.P50)
		bw.printf("%s{quantile=\"0.9\"} %d\n", m, h.P90)
		bw.printf("%s{quantile=\"0.99\"} %d\n", m, h.P99)
		bw.printf("%s_sum %d\n", m, h.Sum)
		bw.printf("%s_count %d\n", m, h.Count)
	}
	return bw.err
}

// errWriter latches the first write error so render code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

package obs

// Exposition-surface pins for the observability PR: byte-stable /metrics
// ordering regardless of family registration order (including concurrent
// first-use), exemplar comment rendering, and the build-info identity
// gauge.

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestWritePromByteStable pins the exposition contract the differential
// harness relies on: whatever order the tenant/store/cluster metric
// families first materialize in — sequential, reversed, or racing
// first-use from concurrent goroutines — identical metric values render
// identical bytes.
func TestWritePromByteStable(t *testing.T) {
	populate := []func(r *Registry){
		func(r *Registry) {
			r.Counter("locality_tenant_admitted_total", "Submissions admitted, by tenant.", "tenant", "anonymous").Inc()
			r.Counter("locality_tenant_admitted_total", "Submissions admitted, by tenant.", "tenant", "other").Add(2)
		},
		func(r *Registry) {
			r.Gauge("locality_store_segments", "Result store segments resident.").Set(3)
		},
		func(r *Registry) {
			r.Counter("locality_cluster_failovers_total", "Shard failovers.").Inc()
		},
		func(r *Registry) {
			r.Histogram("locality_http_request_seconds", "Request latency.", DefTimeBuckets, "route", "submit").Observe(0.002)
		},
	}
	render := func(order []int, concurrent bool) string {
		reg := NewRegistry()
		if concurrent {
			var wg sync.WaitGroup
			for _, i := range order {
				wg.Add(1)
				go func(f func(*Registry)) {
					defer wg.Done()
					f(reg)
				}(populate[i])
			}
			wg.Wait()
		} else {
			for _, i := range order {
				populate[i](reg)
			}
		}
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	want := render([]int{0, 1, 2, 3}, false)
	if got := render([]int{3, 2, 1, 0}, false); got != want {
		t.Errorf("reversed registration order changed exposition bytes:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	for i := 0; i < 5; i++ {
		if got := render([]int{0, 1, 2, 3}, true); got != want {
			t.Fatalf("concurrent first-use changed exposition bytes (iter %d):\n--- want ---\n%s--- got ---\n%s", i, want, got)
		}
	}
}

// TestHistogramExemplar pins the trace link: ObserveExemplar renders an
// EXEMPLAR comment line after the series, and — because exemplars are
// metadata, not values — the numeric series stays byte-identical to
// plain Observe calls.
func TestHistogramExemplar(t *testing.T) {
	plain, traced := NewRegistry(), NewRegistry()
	plain.Histogram("locality_http_request_seconds", "Request latency.", DefTimeBuckets, "route", "submit").Observe(0.002)
	traced.Histogram("locality_http_request_seconds", "Request latency.", DefTimeBuckets, "route", "submit").
		ObserveExemplar(0.002, "0a1b2c3d4e5f6071")

	var pb, tb bytes.Buffer
	if err := plain.WriteProm(&pb); err != nil {
		t.Fatal(err)
	}
	if err := traced.WriteProm(&tb); err != nil {
		t.Fatal(err)
	}
	wantLine := `# EXEMPLAR locality_http_request_seconds{route="submit"} trace="0a1b2c3d4e5f6071"`
	if !strings.Contains(tb.String(), wantLine+"\n") {
		t.Errorf("exposition missing exemplar line %q:\n%s", wantLine, tb.String())
	}
	// Strip the comment line: everything else must match the plain run.
	stripped := strings.ReplaceAll(tb.String(), wantLine+"\n", "")
	if stripped != pb.String() {
		t.Errorf("exemplar changed metric values:\n--- plain ---\n%s--- traced (stripped) ---\n%s", pb.String(), stripped)
	}
}

// TestRegisterBuildInfo pins the provenance gauge: one series, value 1,
// identity entirely in the labels.
func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "locality_build_info{") {
		t.Fatalf("exposition missing locality_build_info:\n%s", out)
	}
	for _, label := range []string{`go_version="go`, `goos="`, `goarch="`, `version="`} {
		if !strings.Contains(out, label) {
			t.Errorf("build info missing label %s:\n%s", label, out)
		}
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "locality_build_info{") {
			line = l
		}
	}
	if !strings.HasSuffix(line, "} 1") {
		t.Errorf("build info value line %q, want value 1", line)
	}
	// Idempotent: re-registering must not grow the label space.
	RegisterBuildInfo(reg)
	var again bytes.Buffer
	if err := reg.WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Errorf("re-registration changed exposition:\n--- first ---\n%s--- second ---\n%s", out, again.String())
	}
	// Nil-registry safe, like every obs entry point.
	RegisterBuildInfo(nil)
}

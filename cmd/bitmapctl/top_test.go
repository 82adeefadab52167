package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"insitubits"
)

func topStatus() insitubits.RunStatus {
	return insitubits.RunStatus{
		Workload:     "heat3d",
		Method:       "bitmaps",
		Strategy:     "c2_c2",
		Steps:        100,
		StepsDone:    40,
		CurrentStep:  39,
		Selected:     10,
		QueueDepth:   2,
		QueuePeak:    5,
		BytesWritten: 3 << 20,
		CodecBins:    map[string]int64{"wah": 120, "bbc": 8},
		Phases: map[string]insitubits.RunPhaseStatus{
			"simulate": {Count: 40, TotalNs: 2_000_000_000},
			"reduce":   {Count: 40, TotalNs: 500_000_000},
		},
		ElapsedNs: 3_000_000_000,
		TraceID:   "00000000000000000000000000abcdef",
	}
}

func TestRenderTop(t *testing.T) {
	out := renderTop(topStatus())
	for _, want := range []string{
		"running",
		"method=bitmaps",
		"strategy=c2_c2",
		"workload=heat3d",
		"40/100",
		"(current 39)",
		"selected  10 steps, 3.00 MB written",
		"depth 2, peak 5",
		"elapsed   3s",
		"reduce 500ms/40",
		"simulate 2s/40",
		"wah=120 bbc=8",
		"trace     00000000000000000000000000abcdef",
		"/debug/traces?id=00000000000000000000000000abcdef",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTop output missing %q:\n%s", want, out)
		}
	}

	st := topStatus()
	st.Done = true
	st.TraceID = ""
	out = renderTop(st)
	if !strings.Contains(out, "done") {
		t.Errorf("finished run not shown as done:\n%s", out)
	}
	if strings.Contains(out, "trace ") {
		t.Errorf("trace line rendered without a trace ID:\n%s", out)
	}
}

func TestRenderServeTop(t *testing.T) {
	st := insitubits.ServeStatus{
		State:       "ready",
		CatalogGen:  3,
		Step:        40,
		Vars:        []string{"pres", "temp"},
		MaxInflight: 8,
		MaxQueue:    32,
		Inflight:    4,
		Queued:      2,
		Requests:    1000,
		Admitted:    950,
		Shed:        50,
		Cancelled:   3,
		Refused:     1,
		Panics:      2,
	}
	out := renderServeTop(st)
	for _, want := range []string{
		"insitu-serve  ready",
		"vars=pres,temp",
		"generation 3, step 40",
		"4/8",
		"2/32",
		"1000 total, 950 admitted, 50 shed, 3 queue-cancelled, 1 refused",
		"panics    2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderServeTop output missing %q:\n%s", want, out)
		}
	}
	st.Panics = 0
	st.Step = -1
	out = renderServeTop(st)
	if strings.Contains(out, "panics") {
		t.Errorf("panic line rendered with zero panics:\n%s", out)
	}
	if strings.Contains(out, "step -1") {
		t.Errorf("explicit-file catalog must not render a step:\n%s", out)
	}
}

func TestFetchServeStatusFallback(t *testing.T) {
	// A serve debug server: /debug/run 404s, /debug/serve answers — the
	// path `bitmapctl top` takes against insitu-serve.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/debug/serve" {
			http.NotFound(w, req)
			return
		}
		w.Write([]byte(`{"state":"ready","catalog_generation":2,"step":7,"vars":["temp"],"max_inflight":8,"max_queue":32}`))
	}))
	defer srv.Close()
	if _, err := fetchRunStatus(srv.URL + "/debug/run"); err == nil {
		t.Fatal("expected /debug/run to 404 on a serve-only debug server")
	}
	st, err := fetchServeStatus(srv.URL + "/debug/serve")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "ready" || st.CatalogGen != 2 || st.Step != 7 {
		t.Errorf("decoded serve status: %+v", st)
	}
}

func TestProgressBar(t *testing.T) {
	if got := progressBar(0, 0, 10); got != "[----------]" {
		t.Errorf("zero-total bar: %q", got)
	}
	if got := progressBar(5, 10, 10); got != "[#####.....]" {
		t.Errorf("half bar: %q", got)
	}
	if got := progressBar(20, 10, 10); got != "[##########]" {
		t.Errorf("overfull bar must clamp: %q", got)
	}
}

func TestFmtBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KB"},
		{3 << 20, "3.00 MB"},
		{5 << 30, "5.00 GB"},
	} {
		if got := fmtBytes(tc.n); got != tc.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestFetchRunStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/debug/run" {
			http.NotFound(w, req)
			return
		}
		w.Write([]byte(`{"workload":"heat3d","method":"bitmaps","steps":10,"steps_done":10,"done":true}`))
	}))
	defer srv.Close()
	st, err := fetchRunStatus(srv.URL + "/debug/run")
	if err != nil {
		t.Fatal(err)
	}
	if st.Workload != "heat3d" || !st.Done || st.StepsDone != 10 {
		t.Errorf("decoded status: %+v", st)
	}
	if _, err := fetchRunStatus(srv.URL + "/nope"); err == nil {
		t.Error("non-200 response did not error")
	}
}

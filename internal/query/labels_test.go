package query

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"

	"insitubits/internal/codec"
	"insitubits/internal/telemetry"
)

// TestQueryLabelsFollowDebugServer: a request executed while a debug
// server serves runs under its op and generation pprof labels, and under
// none before the server starts or after it stops. Each request is parked
// in testHookLowered while the text goroutine dump, which prints every
// goroutine group's "# labels:", is taken.
func TestQueryLabelsFollowDebugServer(t *testing.T) {
	x := explainTestIndex(t, codec.Auto)
	req := Request{Op: OpBits, A: Subset{ValueLo: 2, ValueHi: 5}}
	wantOp := `"op":"query.bits"`
	wantGen := fmt.Sprintf(`"generation":"%d"`, x.Generation())
	dumpWhileParked := func() string {
		parked, release := make(chan struct{}), make(chan struct{})
		testHookLowered = func(*planNode) {
			close(parked)
			<-release
		}
		defer func() { testHookLowered = nil }()
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), req, x, nil)
			done <- err
		}()
		<-parked
		var dump strings.Builder
		err := pprof.Lookup("goroutine").WriteTo(&dump, 1)
		close(release)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return dump.String()
	}

	if dump := dumpWhileParked(); strings.Contains(dump, wantOp) {
		t.Errorf("request labelled with no debug server serving:\n%s", dump)
	}
	srv, err := telemetry.NewRegistry().ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dump := dumpWhileParked()
	srv.Close()
	if !strings.Contains(dump, wantOp) || !strings.Contains(dump, wantGen) {
		t.Errorf("request not labelled %s %s while a debug server serves:\n%s", wantOp, wantGen, dump)
	}
	if dump := dumpWhileParked(); strings.Contains(dump, wantOp) {
		t.Errorf("request still labelled after the debug server stopped:\n%s", dump)
	}
}

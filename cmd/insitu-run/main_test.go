package main

import (
	"os"
	"testing"
)

func TestPeakRSS(t *testing.T) {
	for _, c := range []struct {
		status string
		want   int64
		ok     bool
	}{
		{"Name:\tinsitu-run\nVmPeak:\t 1240 kB\nVmHWM:\t   95560 kB\nVmRSS:\t 9 kB\n", 95560 << 10, true},
		{"VmHWM:\t0 kB", 0, true},
		{"Name:\tinsitu-run\nVmRSS:\t 9 kB\n", 0, false},
		{"VmHWM:\tlots\n", 0, false},
		{"", 0, false},
	} {
		if got, ok := peakRSS(c.status); got != c.want || ok != c.ok {
			t.Errorf("peakRSS(%q) = %d, %v; want %d, %v", c.status, got, ok, c.want, c.ok)
		}
	}
	// Where the kernel provides the file, the process's own line must parse.
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc/self/status on this platform")
	}
	if hwm, ok := peakRSS(string(status)); !ok || hwm <= 0 {
		t.Fatalf("own VmHWM did not parse (%d, %v) from:\n%s", hwm, ok, status)
	}
}

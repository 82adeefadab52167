package iosim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFaultWriterTransientThenClear(t *testing.T) {
	plan := &FaultPlan{TransientErrs: 2}
	var buf bytes.Buffer
	w := &FaultWriter{W: &buf, Plan: plan}
	for i := 0; i < 2; i++ {
		if n, err := w.Write([]byte("abc")); !IsTransient(err) || n != 0 {
			t.Fatalf("op %d: n=%d err=%v, want injected transient", i, n, err)
		}
	}
	if n, err := w.Write([]byte("abc")); err != nil || n != 3 {
		t.Fatalf("post-transient write = %d, %v", n, err)
	}
	if buf.String() != "abc" {
		t.Fatalf("sink holds %q", buf.String())
	}
}

func TestFaultWriterCrashAtByte(t *testing.T) {
	plan := &FaultPlan{CrashAtByte: 5}
	var buf bytes.Buffer
	w := &FaultWriter{W: &buf, Plan: plan}
	if n, err := w.Write([]byte("abc")); err != nil || n != 3 {
		t.Fatalf("pre-crash write = %d, %v", n, err)
	}
	// This write crosses byte 5: only 2 more bytes land, then the kill.
	n, err := w.Write([]byte("defg"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write err = %v", err)
	}
	if n != 2 {
		t.Fatalf("crossing write landed %d bytes, want 2", n)
	}
	if buf.String() != "abcde" {
		t.Fatalf("sink holds %q, want the 5-byte prefix", buf.String())
	}
	if !plan.Crashed() {
		t.Fatal("plan not crashed")
	}
	// Everything after the kill fails, writes and metadata alike.
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write err = %v", err)
	}
	if IsTransient(err) {
		t.Fatal("crash classified as transient")
	}
}

func TestFaultPlanBoundariesDeterministic(t *testing.T) {
	run := func() []int64 {
		plan := &FaultPlan{}
		w := &FaultWriter{W: io.Discard, Plan: plan}
		for _, n := range []int{3, 7, 1} {
			if _, err := w.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		return plan.WriteBoundaries()
	}
	a, b := run(), run()
	want := []int64{3, 10, 11}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("boundaries %v / %v, want %v", a, b, want)
		}
	}
}

func TestFaultFSKillsMetadataOps(t *testing.T) {
	dir := t.TempDir()
	plan := &FaultPlan{CrashAtByte: 4}
	fs := NewFaultFS(OS, plan)
	f, err := fs.Create(filepath.Join(dir, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("123456")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync err = %v", err)
	}
	f.Close()
	if err := fs.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename err = %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("syncdir err = %v", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("create err = %v", err)
	}
	// Only the 4-byte prefix ever reached the disk.
	data, err := os.ReadFile(filepath.Join(dir, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1234" {
		t.Fatalf("temp file holds %q", data)
	}
}

func TestRetryTransient(t *testing.T) {
	calls, retries := 0, 0
	err := Retry(context.Background(), Backoff{Tries: 5, Base: time.Microsecond, OnRetry: func(int, error) { retries++ }},
		func() error {
			calls++
			if calls < 3 {
				return ErrTransient
			}
			return nil
		})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d", calls, retries)
	}
}

func TestRetryGivesUpAndSkipsNonTransient(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Backoff{Tries: 3, Base: time.Microsecond}, func() error {
		calls++
		return ErrTransient
	})
	if !IsTransient(err) || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	calls = 0
	fatal := errors.New("disk on fire")
	err = Retry(context.Background(), Backoff{Tries: 3, Base: time.Microsecond}, func() error {
		calls++
		return fatal
	})
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("non-transient retried: calls=%d err=%v", calls, err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry(ctx, Backoff{Tries: 10, Base: time.Hour}, func() error { return ErrTransient })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

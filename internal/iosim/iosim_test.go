package iosim

import (
	"sync"
	"testing"
	"time"
)

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewStore(-5); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestAccounting(t *testing.T) {
	s, err := NewStore(100)
	if err != nil {
		t.Fatal(err)
	}
	s.Account(1000)
	s.Account(9000)
	if s.BytesWritten() != 10000 {
		t.Fatalf("BytesWritten = %d", s.BytesWritten())
	}
	if s.Writes() != 2 {
		t.Fatalf("Writes = %d", s.Writes())
	}
	// 10 kB at 100 MB/s = 100 µs.
	if got, want := s.ModeledTime(), 100*time.Microsecond; got != want {
		t.Fatalf("ModeledTime = %v want %v", got, want)
	}
	s.Reset()
	if s.BytesWritten() != 0 || s.ModeledTime() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestSharedContention(t *testing.T) {
	// Two writers sharing one store accumulate on the same device: the
	// modelled time is the sum, which is exactly the remote-server
	// contention of Figure 13.
	s, _ := NewStore(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Account(1000)
			}
		}()
	}
	wg.Wait()
	if s.BytesWritten() != 800000 {
		t.Fatalf("BytesWritten = %d", s.BytesWritten())
	}
	if s.Writes() != 800 {
		t.Fatalf("Writes = %d", s.Writes())
	}
}

func TestAccountNegativePanics(t *testing.T) {
	s, _ := NewStore(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Account did not panic")
		}
	}()
	s.Account(-1)
}

func TestModelTransfer(t *testing.T) {
	if d := ModelTransfer(100e6, 100); d != time.Second {
		t.Fatalf("100 MB at 100 MB/s = %v", d)
	}
	if d := ModelTransfer(0, 100); d != 0 {
		t.Fatalf("0 bytes = %v", d)
	}
}

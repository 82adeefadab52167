package bitvec

// RunEncoder encodes n-bit bitmaps (n < 2³²) from their set runs — flat
// (start, length) pairs, sorted and disjoint, in lists read in order — in
// O(runs), never through an expanded buffer. Runs that touch, in one list
// or across two, encode as their union: the stream is canonical however
// they were cut. Streams are built in scratch reused from call to call, and
// only the bitmap returned is copied out. The zero value is ready; one
// goroutine at a time.
type RunEncoder struct {
	wah Appender
	bbc bbcWriter
}

// WAH returns the WAH vector whose set bits are the runs.
func (e *RunEncoder) WAH(n int, runs ...[]uint32) *Vector {
	e.wahRuns(n, runs)
	return e.wah.Snapshot()
}

// BBC returns the BBC bitmap whose set bits are the runs.
func (e *RunEncoder) BBC(n int, runs ...[]uint32) *BBC {
	e.bbcRuns(n, 0, runs)
	return e.stream(n)
}

// Smaller returns the smaller of the two exact encodings, ties to WAH: the
// adaptive policy, deciding on sizes and allocating only the bitmap it
// keeps. The BBC encode stops once it reaches the WAH size.
func (e *RunEncoder) Smaller(n int, runs ...[]uint32) Bitmap {
	e.wahRuns(n, runs)
	if limit := e.wah.SizeBytes(); limit > 0 && e.bbcRuns(n, limit, runs) {
		return e.stream(n)
	}
	return e.wah.Snapshot()
}

// wahRuns encodes into the scratch appender: a run ORs its bits into the
// segment in hand; whole segments inside a run or a gap go out as fills.
func (e *RunEncoder) wahRuns(n int, lists [][]uint32) {
	a := &e.wah
	a.Reset()
	seg, at, base := uint32(0), 0, 0 // the segment in hand, its index and first bit
	for _, runs := range lists {
		for i := 0; i+1 < len(runs); i += 2 {
			lo, hi := int(runs[i]), int(runs[i]+runs[i+1])
			if lo-base >= SegmentBits {
				k := lo / SegmentBits
				a.AppendSegment(seg)
				a.AppendFill(0, k-at-1)
				seg, at, base = 0, k, k*SegmentBits
			}
			if hi-base < SegmentBits {
				seg |= uint32(1)<<uint((hi-base)&31) - uint32(1)<<uint((lo-base)&31)
				continue
			}
			k := hi / SegmentBits
			a.AppendSegment(seg | literalMask<<uint((lo-base)&31))
			a.AppendFill(1, k-at-1)
			seg, at, base = uint32(1)<<uint((hi-k*SegmentBits)&31)-1, k, k*SegmentBits
		}
	}
	if full := n / SegmentBits; at < full {
		a.AppendSegment(seg)
		a.AppendFill(0, full-at-1)
		seg = 0
	}
	if width := n % SegmentBits; width > 0 {
		a.AppendPartial(seg, width)
	}
	a.flushTelemetry()
}

// bbcRuns is wahRuns a byte at a time, into the scratch writer, and
// reports whether the stream stayed under a positive limit, stopping once
// it cannot.
func (e *RunEncoder) bbcRuns(n, limit int, lists [][]uint32) bool {
	w := &e.bbc
	w.reset(limit)
	acc, at := byte(0), 0 // the byte in hand and its index
	for _, runs := range lists {
		for i := 0; i+1 < len(runs) && !w.over(); i += 2 {
			lo, hi := int(runs[i]), int(runs[i]+runs[i+1])
			if k := lo >> 3; k > at {
				w.putByte(acc)
				w.putRun(0, k-at-1)
				acc, at = 0, k
			}
			if k := hi >> 3; k == at {
				acc |= byte(1)<<uint(hi&7) - byte(1)<<uint(lo&7)
				continue
			}
			w.putByte(acc | 0xFF<<uint(lo&7))
			w.putRun(0xFF, hi>>3-at-1)
			acc, at = byte(1)<<uint(hi&7)-1, hi>>3
		}
	}
	if bytes := (n + 7) / 8; at < bytes {
		w.putByte(acc)
		w.putRun(0, bytes-at-1)
	}
	w.bytes()
	return !w.over()
}

// stream copies the scratch BBC stream out at its exact size.
func (e *RunEncoder) stream(n int) *BBC {
	return &BBC{data: append(make([]byte, 0, len(e.bbc.out)), e.bbc.out...), nbits: n}
}

package query

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"insitubits/internal/bitvec"
	"insitubits/internal/codec"
	"insitubits/internal/index"
)

// Cost is the per-operator accounting of an EXPLAIN/ANALYZE plan node. In
// analyze mode the figures are what the executed operator actually touched,
// derived from the physical composition of every operand it consumed; in
// explain mode they are estimates from the per-bin index stats (encoded
// size, cached count, codec) without executing anything.
//
// Word semantics are codec-native: for WAH and Dense, WordsScanned is the
// number of encoded 32-bit words and FillWords/LiteralWords split them by
// kind; for BBC, WordsScanned is the byte stream rounded up to 32-bit words
// while FillWords counts run tokens and LiteralWords literal payload bytes.
// FillSegments is the number of 31-bit segments covered by fill runs — the
// "how much work did compression save" figure.
type Cost struct {
	BinsTouched  int   `json:"bins_touched,omitempty"`
	WordsScanned int64 `json:"words_scanned,omitempty"`
	FillWords    int64 `json:"fill_words,omitempty"`
	FillSegments int64 `json:"fill_segments,omitempty"`
	LiteralWords int64 `json:"literal_words,omitempty"`
	BytesDecoded int64 `json:"bytes_decoded,omitempty"`
	// OutBits/OutWords describe the intermediate bitmap an operator
	// produced (0 for count-only operators that never materialize).
	OutBits  int `json:"out_bits,omitempty"`
	OutWords int `json:"out_words,omitempty"`
	// Rows is the operator's output cardinality (elements selected /
	// counted); estimated in explain mode.
	Rows int64 `json:"rows,omitempty"`
}

// add folds another cost into c (used for rolling children up into parents;
// output-shape fields are kept, not summed).
func (c *Cost) add(o Cost) {
	c.BinsTouched += o.BinsTouched
	c.WordsScanned += o.WordsScanned
	c.FillWords += o.FillWords
	c.FillSegments += o.FillSegments
	c.LiteralWords += o.LiteralWords
	c.BytesDecoded += o.BytesDecoded
}

// Node is one operator of a plan/profile tree.
type Node struct {
	// Op names the operator ("count-range", "or-merge", "decode-a", ...).
	Op string `json:"op"`
	// Detail is a human-oriented qualifier (value range, step pair, ...).
	Detail string `json:"detail,omitempty"`
	// Bin is the index bin a bin-level operator touched, -1 otherwise.
	Bin int `json:"bin"`
	// Codec names the encoding of the bin (or dominant operand) when known.
	Codec string `json:"codec,omitempty"`
	// Cache records the bitmap cache's verdict for this operator ("hit" or
	// "miss"); empty when no cache was consulted (cache disabled, or the
	// operator's result is uncacheable).
	Cache string `json:"cache,omitempty"`
	// Cost is this operator's own accounting, excluding children.
	Cost Cost `json:"cost"`
	// ElapsedNs is the measured wall time, when the operator was timed
	// separately (only the root is timed for most queries).
	ElapsedNs int64   `json:"elapsed_ns,omitempty"`
	Children  []*Node `json:"children,omitempty"`

	// light marks capture-only accounting: operand charges keep the exact
	// word/byte totals (O(1) per operand from the encoded lengths) but skip
	// the Stats/Count composition passes, which each re-scan the full
	// encoding. Explicit ANALYZE and the slow-query log always run full
	// accounting; the flag is inherited root-to-leaf via child/binChild.
	light bool
}

// child appends (and returns) a new child operator. Nil-safe: on a nil
// receiver — the plain, unprofiled execution path — it returns nil, and the
// other nil-safe mutators below keep no-oping down the chain.
func (n *Node) child(op, detail string) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Op: op, Detail: detail, Bin: -1, light: n.light}
	n.Children = append(n.Children, c)
	return c
}

// binChild appends a child operator pinned to an index bin, recording the
// bin's codec and charging one full scan of its encoding. Nil-safe.
func (n *Node) binChild(op string, x *index.Index, b int) *Node {
	if n == nil {
		return nil
	}
	bm := x.Bitmap(b)
	c := &Node{Op: op, Bin: b, Codec: codecName(bm), Cost: n.scanCostOf(bm), light: n.light}
	n.Children = append(n.Children, c)
	return c
}

// operandChild appends the node of one operand a value OR reads: "or" at
// its low bin, or "or-group" at its high-level group, naming the bins the
// group holds. Its cost is the caller's to set. Nil-safe.
func (n *Node) operandChild(op index.Operand) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Op: "or", Bin: op.Lo, Codec: codecName(op.Bitmap), light: n.light}
	if op.Group >= 0 {
		c.Op, c.Bin, c.Detail = "or-group", op.Group, fmt.Sprintf("bins [%d,%d)", op.Lo, op.Hi)
	}
	n.Children = append(n.Children, c)
	return c
}

// addCost folds extra cost into the node's own accounting. Nil-safe.
func (n *Node) addCost(c Cost) {
	if n == nil {
		return
	}
	n.Cost.add(c)
}

// scanOperand charges the node one full scan of an operand bitmap. Nil-safe.
func (n *Node) scanOperand(b bitvec.Bitmap) {
	if n == nil {
		return
	}
	n.Cost.add(n.scanCostOf(b))
}

// setOut records the intermediate bitmap the operator produced. Nil-safe.
func (n *Node) setOut(b bitvec.Bitmap) {
	if n == nil {
		return
	}
	n.Cost.OutBits, n.Cost.OutWords = b.Len(), b.Words()
	if n.Codec == "" {
		n.Codec = codecName(b)
	}
}

// setRows records the operator's output cardinality. Nil-safe.
func (n *Node) setRows(rows int) {
	if n == nil {
		return
	}
	n.Cost.Rows = int64(rows)
}

// Total returns the node's cost including all descendants.
func (n *Node) Total() Cost {
	t := n.Cost
	for _, c := range n.Children {
		sub := c.Total()
		t.add(sub)
	}
	return t
}

// Profile is the result of an EXPLAIN (estimated, not executed) or ANALYZE
// (executed and measured) query: the operator tree plus query-level
// metadata. It marshals to JSON for the slow-query log and renders as an
// indented tree for the CLI.
type Profile struct {
	// Query is the entry point ("count", "sum", "correlation", ...).
	Query string `json:"query"`
	// Mode is "explain" (estimated) or "analyze" (executed).
	Mode string `json:"mode"`
	// Detail describes the parameters (subset ranges, quantile, ...).
	Detail string `json:"detail,omitempty"`
	// ElapsedNs is the measured wall time of the whole query (analyze) or 0.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	// Err records the query error, if it failed.
	Err string `json:"error,omitempty"`
	// TraceID cross-references the identity trace this query ran under
	// (fetchable from /debug/traces while it stays in the ring), or "".
	TraceID string `json:"trace_id,omitempty"`
	// PlanDigest fingerprints the executable plan the optimizer chose (op,
	// parameters, optimized IR shape). The same digest is
	// stamped into workload-log records, so a slow-log entry joins against
	// qlog/replay output by plan identity rather than by timestamp.
	PlanDigest string `json:"plan_digest,omitempty"`
	// Root is the operator tree.
	Root *Node `json:"plan"`
}

// cacheVerdict folds the per-node cache annotations into one query-level
// verdict: "hit" when any operator was answered from the bitmap cache,
// "miss" when the cache was consulted without a hit, "" when no cache was
// in play. Nil-safe.
func (p *Profile) cacheVerdict() string {
	if p == nil {
		return ""
	}
	return p.Root.cacheVerdict()
}

func (n *Node) cacheVerdict() string {
	if n == nil {
		return ""
	}
	v := n.Cache
	for _, c := range n.Children {
		if cv := c.cacheVerdict(); cv == "hit" || v == "" {
			v = cv
		}
	}
	return v
}

// Modes of a Profile.
const (
	ModeExplain = "explain"
	ModeAnalyze = "analyze"
)

// Elapsed returns the measured duration.
func (p *Profile) Elapsed() time.Duration { return time.Duration(p.ElapsedNs) }

// Total returns the whole plan's aggregated cost.
func (p *Profile) Total() Cost {
	if p == nil || p.Root == nil {
		return Cost{}
	}
	return p.Root.Total()
}

// JSON renders the profile as one JSON document (the slow-query log payload).
func (p *Profile) JSON() json.RawMessage {
	data, err := json.Marshal(p)
	if err != nil {
		return json.RawMessage(fmt.Sprintf("{%q:%q}", "error", err))
	}
	return data
}

// maxRenderedBins caps how many sibling bin-level nodes Render prints per
// parent; the remainder is summarized in one line (the JSON form is never
// truncated).
const maxRenderedBins = 12

// Render returns the profile as an indented operator tree, one operator per
// line with its cost summary — the `bitmapctl explain` output.
func (p *Profile) Render() string {
	if p == nil || p.Root == nil {
		return ""
	}
	var sb strings.Builder
	header := strings.ToUpper(p.Mode)
	fmt.Fprintf(&sb, "%s %s", header, p.Query)
	if p.Detail != "" {
		fmt.Fprintf(&sb, " (%s)", p.Detail)
	}
	if p.ElapsedNs > 0 {
		fmt.Fprintf(&sb, "  [%s]", time.Duration(p.ElapsedNs))
	}
	if p.Err != "" {
		fmt.Fprintf(&sb, "  ERROR: %s", p.Err)
	}
	sb.WriteByte('\n')
	renderNode(&sb, p.Root, "")
	return sb.String()
}

func renderNode(sb *strings.Builder, n *Node, indent string) {
	fmt.Fprintf(sb, "%s%s\n", indent, n.describe())
	binRun := 0 // consecutive bin-level children beyond the render cap
	var skipped Cost
	flush := func() {
		if binRun > 0 {
			fmt.Fprintf(sb, "%s  … +%d more bins  %s\n", indent, binRun, skipped.describe())
			binRun, skipped = 0, Cost{}
		}
	}
	seenBins := 0
	for _, c := range n.Children {
		if c.Bin >= 0 && len(c.Children) == 0 {
			seenBins++
			if seenBins > maxRenderedBins {
				binRun++
				skipped.add(c.Cost)
				continue
			}
		}
		flush()
		renderNode(sb, c, indent+"  ")
	}
	flush()
}

func (n *Node) describe() string {
	var sb strings.Builder
	sb.WriteString(n.Op)
	if n.Bin >= 0 {
		fmt.Fprintf(&sb, " bin=%d", n.Bin)
	}
	if n.Codec != "" {
		fmt.Fprintf(&sb, " codec=%s", n.Codec)
	}
	if n.Cache != "" {
		fmt.Fprintf(&sb, " cache=%s", n.Cache)
	}
	if n.Detail != "" {
		fmt.Fprintf(&sb, " (%s)", n.Detail)
	}
	if s := n.Cost.describe(); s != "" {
		sb.WriteString("  ")
		sb.WriteString(s)
	}
	if n.ElapsedNs > 0 {
		fmt.Fprintf(&sb, "  [%s]", time.Duration(n.ElapsedNs))
	}
	return sb.String()
}

func (c Cost) describe() string {
	var parts []string
	if c.BinsTouched > 0 {
		parts = append(parts, fmt.Sprintf("bins=%d", c.BinsTouched))
	}
	if c.WordsScanned > 0 {
		parts = append(parts, fmt.Sprintf("words=%d (fill=%d lit=%d)", c.WordsScanned, c.FillWords, c.LiteralWords))
	}
	if c.FillSegments > 0 {
		parts = append(parts, fmt.Sprintf("fillsegs=%d", c.FillSegments))
	}
	if c.BytesDecoded > 0 {
		parts = append(parts, fmt.Sprintf("bytes=%d", c.BytesDecoded))
	}
	if c.OutBits > 0 {
		parts = append(parts, fmt.Sprintf("out=%db/%dw", c.OutBits, c.OutWords))
	}
	if c.Rows > 0 {
		parts = append(parts, fmt.Sprintf("rows=%d", c.Rows))
	}
	return strings.Join(parts, " ")
}

// scanCostOf is the cost of one full scan of a bitmap's encoding — the unit
// of ANALYZE accounting: an operator that consumes a bitmap is charged its
// complete encoded form. A light (capture-only) node keeps the exact
// words/bytes totals — the fields the workload log records — but skips
// Stats(), which itself re-scans the whole encoding to break words into
// fill/literal classes. That skip is what keeps qlog-enabled runs inside
// the <2% overhead budget; explicit ANALYZE and slow-log profiles still take
// the full composition pass.
func (n *Node) scanCostOf(b bitvec.Bitmap) Cost {
	c := Cost{WordsScanned: int64(b.Words()), BytesDecoded: int64(b.SizeBytes())}
	if n == nil || !n.light {
		st := b.Stats()
		c.FillWords, c.FillSegments, c.LiteralWords = int64(st.FillWords), int64(st.FilledSegments), int64(st.LiteralWords)
	}
	return c
}

// codecName labels a bitmap's encoding for plan nodes.
func codecName(b bitvec.Bitmap) string { return codec.Of(b).String() }

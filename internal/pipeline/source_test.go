package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/itemset"
	"repro/internal/pipeline"
)

func drainSource(t *testing.T, src pipeline.RecordSource) []itemset.Itemset {
	t.Helper()
	var out []itemset.Itemset
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

func TestSliceSourceDeliversAllThenEOF(t *testing.T) {
	records := testRecords(t, 10)
	src := pipeline.SliceSource(records)
	got := drainSource(t, src)
	if len(got) != 10 {
		t.Fatalf("delivered %d records, want 10", len(got))
	}
	for i := range got {
		if !got[i].Equal(records[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after exhaustion: %v, want io.EOF", err)
	}
}

func TestGeneratorSourceMatchesGenerate(t *testing.T) {
	want := data.WebViewLike(5).Generate(50)
	got := drainSource(t, pipeline.GeneratorSource(data.WebViewLike(5), 50))
	if len(got) != len(want) {
		t.Fatalf("delivered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("record %d differs from materialized generation", i)
		}
	}
}

func TestReaderSourceStreamsAndSkipsNothingOnCleanInput(t *testing.T) {
	in := "a b\nc\na c\n"
	vocab := data.NewVocabulary()
	got := drainSource(t, pipeline.ReaderSource(strings.NewReader(in), vocab))
	if len(got) != 3 || vocab.Len() != 3 {
		t.Fatalf("records=%d vocab=%d, want 3/3", len(got), vocab.Len())
	}
}

func TestReaderSourceSurfacesParseErrors(t *testing.T) {
	src := pipeline.ReaderSource(strings.NewReader("a b\nx\x00 c\nd\n"), nil)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	var pe *data.ParseError
	if _, err := src.Next(); !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("second record: %v, want ParseError at line 2", err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatalf("reader did not resynchronize after bad line: %v", err)
	}
}

func TestDrainSourceStopsEarly(t *testing.T) {
	src := pipeline.NewDrainSource(pipeline.SliceSource(testRecords(t, 100)))
	for i := 0; i < 5; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if src.Stopped() {
		t.Fatal("Stopped before Stop")
	}
	src.Stop()
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after Stop: %v, want io.EOF", err)
	}
	if !src.Stopped() {
		t.Fatal("Stopped not reported")
	}
}

// streamText renders records in the one-transaction-per-line format with
// numeric tokens, the fixture for reader-based runs.
func streamText(t *testing.T, records []itemset.Itemset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := data.WriteTransactions(&buf, records, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// collectCtx runs the supervised path over src and returns the windows and
// report.
func collectCtx(t *testing.T, cfg pipeline.Config, src pipeline.RecordSource) ([]pipeline.Window, *pipeline.Report) {
	t.Helper()
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []pipeline.Window
	rep, err := p.RunContext(context.Background(), src, func(w pipeline.Window) error {
		out = append(out, w)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// TestReaderSourceRunMatchesSliceRun: streaming the input file through
// ReaderSource must publish exactly what a materialized SliceSource run
// over the parsed records publishes, inline and with a worker pool.
func TestReaderSourceRunMatchesSliceRun(t *testing.T) {
	text := streamText(t, testRecords(t, 700))
	records, _, err := data.ReadTransactions(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := testConfig(workers)
		ref, _ := collectCtx(t, cfg, pipeline.SliceSource(records))
		got, rep := collectCtx(t, cfg, pipeline.ReaderSource(strings.NewReader(text), nil))
		sameWindows(t, "reader vs slice", ref, got)
		if rep.Records != len(records) || rep.BadRecords != 0 {
			t.Fatalf("report = %+v, want %d records and no bad ones", rep, len(records))
		}
	}
}

// corrupt injects malformed lines (NUL tokens) into a transaction text at
// every stride-th line, returning the corrupted text and the number of
// injected lines.
func corrupt(text string, stride int) (string, int) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var out []string
	injected := 0
	for i, l := range lines {
		out = append(out, l)
		if i%stride == stride-1 {
			out = append(out, "corrupt\x00ed line")
			injected++
		}
	}
	return strings.Join(out, "\n") + "\n", injected
}

// TestBadRecordBudgetSkipsAndPreservesOutput: under a sufficient budget,
// malformed lines are skipped, counted, quarantined with line numbers —
// and the published windows are byte-identical to a clean-input run.
func TestBadRecordBudgetSkipsAndPreservesOutput(t *testing.T) {
	text := streamText(t, testRecords(t, 700))
	dirty, injected := corrupt(text, 100)
	if injected == 0 {
		t.Fatal("fixture produced no bad lines")
	}
	for _, workers := range []int{1, 4} {
		cfg := testConfig(workers)
		ref, _ := collectCtx(t, cfg, pipeline.ReaderSource(strings.NewReader(text), nil))

		cfg.MaxBadRecords = injected
		got, rep := collectCtx(t, cfg, pipeline.ReaderSource(strings.NewReader(dirty), nil))
		sameWindows(t, "dirty vs clean input", ref, got)
		if rep.BadRecords != injected {
			t.Fatalf("BadRecords = %d, want %d", rep.BadRecords, injected)
		}
		// The first bad line is injected after the 100th clean line, so it
		// sits at line 101 of the dirty input.
		if len(rep.Quarantined) == 0 || rep.Quarantined[0].Line != 101 {
			t.Fatalf("quarantine = %+v, want first bad line at 101", rep.Quarantined)
		}
		if !errors.Is(rep.Quarantined[0].Err, data.ErrTokenNUL) {
			t.Fatalf("quarantined reason = %v", rep.Quarantined[0].Err)
		}
	}
}

// TestBadRecordBudgetExhaustionFailsRun: one bad record over budget fails
// the run with an error naming the budget; the default budget of zero
// fails fast on the first malformed line.
func TestBadRecordBudgetExhaustionFailsRun(t *testing.T) {
	text := streamText(t, testRecords(t, 700))
	dirty, injected := corrupt(text, 100)

	cfg := testConfig(4)
	cfg.MaxBadRecords = injected - 1
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.RunContext(context.Background(), pipeline.ReaderSource(strings.NewReader(dirty), nil),
		func(pipeline.Window) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "bad-record budget") {
		t.Fatalf("budget exhaustion: %v", err)
	}
	if rep.BadRecords != injected {
		t.Fatalf("report.BadRecords = %d, want %d (the one over budget is counted)", rep.BadRecords, injected)
	}

	cfg.MaxBadRecords = 0 // fail-fast default
	p, err = pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunContext(context.Background(), pipeline.ReaderSource(strings.NewReader(dirty), nil),
		func(pipeline.Window) error { return nil }); err == nil || !errors.Is(err, data.ErrTokenNUL) {
		t.Fatalf("fail-fast: %v, want the parse failure", err)
	}
}

// TestUnlimitedBadRecordBudget: MaxBadRecords < 0 skips without limit.
func TestUnlimitedBadRecordBudget(t *testing.T) {
	text := streamText(t, testRecords(t, 700))
	dirty, injected := corrupt(text, 10)
	cfg := testConfig(2)
	cfg.MaxBadRecords = -1
	_, rep := collectCtx(t, cfg, pipeline.ReaderSource(strings.NewReader(dirty), nil))
	if rep.BadRecords != injected {
		t.Fatalf("BadRecords = %d, want %d", rep.BadRecords, injected)
	}
	if len(rep.Quarantined) > 16 {
		t.Fatalf("quarantine unbounded: %d entries", len(rep.Quarantined))
	}
}

// TestFastForwardGeneratorSource pins position accounting on the synthetic
// source: consume k records, then re-open an identically-seeded generator,
// FastForward past k, and the remaining sequence must be identical — the
// property checkpoint resume relies on.
func TestFastForwardGeneratorSource(t *testing.T) {
	const n, k = 120, 47
	first := pipeline.GeneratorSource(data.WebViewLike(5), n)
	var want []itemset.Itemset
	for i := 0; i < k; i++ {
		if _, err := first.Next(); err != nil {
			t.Fatal(err)
		}
	}
	want = drainSource(t, first)

	reopened := pipeline.GeneratorSource(data.WebViewLike(5), n)
	skippedBad, err := pipeline.FastForward(reopened, k)
	if err != nil || skippedBad != 0 {
		t.Fatalf("FastForward = (%d, %v), want (0, nil)", skippedBad, err)
	}
	got := drainSource(t, reopened)
	if len(got) != len(want) || len(got) != n-k {
		t.Fatalf("remaining records = %d, want %d", len(got), n-k)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("record %d after fast-forward differs", i)
		}
	}
}

// drainWellFormed reads src to EOF, discarding malformed records the way
// the supervised pipeline does under an unlimited bad-record budget.
func drainWellFormed(t *testing.T, src pipeline.RecordSource) []itemset.Itemset {
	t.Helper()
	var out []itemset.Itemset
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			var pe *data.ParseError
			if errors.As(err, &pe) {
				continue
			}
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestFastForwardReaderSource: the same property for file-backed input,
// including malformed lines inside the skipped prefix — they are discarded
// and counted, and the re-opened reader re-interns the same vocabulary.
func TestFastForwardReaderSource(t *testing.T) {
	text := streamText(t, testRecords(t, 60))
	dirty, injected := corrupt(text, 10)
	const k = 25 // well-formed records to skip; bad lines sit in this prefix

	first := pipeline.ReaderSource(strings.NewReader(dirty), data.NewVocabulary())
	consumed := 0
	for consumed < k {
		if _, err := first.Next(); err != nil {
			var pe *data.ParseError
			if errors.As(err, &pe) {
				continue
			}
			t.Fatal(err)
		}
		consumed++
	}
	want := drainWellFormed(t, first)

	vocab := data.NewVocabulary()
	reopened := pipeline.ReaderSource(strings.NewReader(dirty), vocab)
	skippedBad, err := pipeline.FastForward(reopened, k)
	if err != nil {
		t.Fatal(err)
	}
	if skippedBad == 0 || skippedBad > injected {
		t.Fatalf("skippedBad = %d, want between 1 and %d", skippedBad, injected)
	}
	got := drainWellFormed(t, reopened)
	if len(got) != len(want) {
		t.Fatalf("remaining records = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("record %d after fast-forward differs", i)
		}
	}
}

// TestFastForwardPastEnd: a source shorter than the target position is an
// error naming the shortfall, not a silent partial skip.
func TestFastForwardPastEnd(t *testing.T) {
	src := pipeline.SliceSource(testRecords(t, 10))
	if _, err := pipeline.FastForward(src, 11); err == nil ||
		!strings.Contains(err.Error(), "before the fast-forward position") {
		t.Fatalf("FastForward past the end: %v", err)
	}
}

// TestFastForwardZero is a no-op.
func TestFastForwardZero(t *testing.T) {
	records := testRecords(t, 5)
	src := pipeline.SliceSource(records)
	if _, err := pipeline.FastForward(src, 0); err != nil {
		t.Fatal(err)
	}
	if got := drainSource(t, src); len(got) != 5 {
		t.Fatalf("zero fast-forward consumed records: %d left", len(got))
	}
}

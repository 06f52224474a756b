package checkpoint_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/itemset"
)

// testSnapshot builds a snapshot exercising every field: a realistic window
// buffer, a populated republication cache (with binary itemset keys), and a
// non-empty bias memo.
func testSnapshot(t testing.TB) *checkpoint.Snapshot {
	t.Helper()
	window := data.WebViewLike(5).Generate(40)
	return &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			WindowSize:   40,
			Epsilon:      0.016,
			Delta:        0.4,
			MinSupport:   25,
			VulnSupport:  5,
			Seed:         0xDEADBEEF,
			Scheme:       "hybrid(0.40)",
			ClosedOnly:   true,
			PublishEvery: 7,
		},
		Records:    123456,
		BadRecords: 3,
		Published:  217,
		Window:     window,
		Publisher: core.PublisherState{
			Window:     217,
			RNG:        0x0123456789ABCDEF,
			BiasReuses: 12,
			Ladder:     []core.LadderRung{{Support: 40, Size: 2}, {Support: 31, Size: 5}},
			Biases:     []int{3, -2},
			Cache: []core.CacheEntry{
				{Key: itemset.New(1, 5).Key(), TrueSupport: 30, Sanitized: 33, LastSeen: 216},
				{Key: itemset.New(2).Key(), TrueSupport: 41, Sanitized: 38, LastSeen: 217},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot(t)
	enc, err := checkpoint.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeDeterministic: equal snapshots serialize to equal bytes — the
// property the resume fingerprint comparisons and the tests' byte-level
// assertions rest on.
func TestEncodeDeterministic(t *testing.T) {
	a, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("equal snapshots encoded to different bytes")
	}
}

// TestDecodeRejectsEveryTruncation: cutting the encoding anywhere must
// surface as ErrCorrupt, never a panic or a silently short snapshot.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	enc, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := checkpoint.Decode(enc[:n]); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v, want ErrCorrupt", n, err)
		}
	}
}

// TestDecodeRejectsEveryBitFlip: the checksum covers the whole file, so any
// single flipped byte is detected.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	enc, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("flip at byte %d: %v, want ErrCorrupt", i, err)
		}
	}
}

// TestDecodeFutureVersion: a well-formed file from a newer format version —
// valid checksum, unknown layout — reports ErrVersion, not corruption.
func TestDecodeFutureVersion(t *testing.T) {
	enc, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(future[8:], checkpoint.Version+1)
	body := future[:len(future)-4]
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.ChecksumIEEE(body))
	if _, err := checkpoint.Decode(future); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("future version: %v, want ErrVersion", err)
	}
}

// TestDecodeRejectsTrailingBytes: extra payload past the snapshot (with a
// recomputed checksum, so only structural validation can catch it) is
// corruption.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	enc, err := checkpoint.Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	padded := append(append([]byte(nil), enc[:len(enc)-4]...), 0, 0, 0)
	padded = binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded))
	if _, err := checkpoint.Decode(padded); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsHugeCounts: a fabricated payload claiming a gigantic
// element count must be rejected before allocation, not OOM the process.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	s := testSnapshot(t)
	s.Window = nil
	enc, err := checkpoint.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	// The window count is a zero uvarint right after the three position
	// uvarints; overwrite the tail with a huge count and reseal the CRC. The
	// exact offset does not matter for the property under test: whatever
	// field the bogus count lands in must be rejected structurally.
	bogus := append([]byte(nil), enc[:len(enc)-4]...)
	bogus = binary.AppendUvarint(bogus, 1<<40)
	bogus = binary.LittleEndian.AppendUint32(bogus, crc32.ChecksumIEEE(bogus))
	if _, err := checkpoint.Decode(bogus); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("huge count: %v, want ErrCorrupt", err)
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := checkpoint.Encode(nil); err == nil {
		t.Fatal("nil snapshot encoded")
	}
}

// TestItemsetDeltaRoundTrip covers sparse, high-id itemsets specifically:
// the delta encoding must survive large gaps and singletons.
func TestItemsetDeltaRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	s.Window = []itemset.Itemset{
		itemset.New(0),
		itemset.New(0, 1, 2, 3),
		itemset.New(7, 100000, 2000000),
		{}, // empty transaction
	}
	enc, err := checkpoint.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Window {
		if !got.Window[i].Equal(s.Window[i]) {
			t.Fatalf("window record %d: %v, want %v", i, got.Window[i], s.Window[i])
		}
	}
}

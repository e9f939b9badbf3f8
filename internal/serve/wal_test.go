package serve

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walRecords is a small deterministic record set for framing tests.
func walTestRecords() []walRecord {
	return []walRecord{
		{Tick: 1, Edits: []Edit{{Node: 3, Client: 0, Reqs: 5}}},
		{Tick: 2, Redraws: []Redraw{{Prob: 0.25, Seed: 7, ReqMin: 1, ReqMax: 9}}},
		{Tick: 3, Edits: []Edit{{Node: 1, Client: 1, Reqs: 0}, {Node: 2, Client: 0, Reqs: 8}}},
	}
}

func appendAll(t *testing.T, w *wal, recs []walRecord) {
	t.Helper()
	for i := range recs {
		if _, err := w.append(&recs[i]); err != nil {
			t.Fatalf("append record %d: %v", i, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	w, err := openWAL(path, -1)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	want := walTestRecords()
	appendAll(t, w, want)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, validLen, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != fi.Size() {
		t.Fatalf("valid prefix %d bytes, file has %d", validLen, fi.Size())
	}
}

func TestWALMissingFileIsEmptyLog(t *testing.T) {
	recs, validLen, err := readWAL(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || recs != nil || validLen != 0 {
		t.Fatalf("missing file: recs=%v len=%d err=%v, want empty", recs, validLen, err)
	}
}

// TestWALTornTail truncates the journal at every byte boundary inside
// the last record: each prefix must decode to exactly the whole
// records it contains, and re-opening with the reported valid length
// must support appending a fresh record after the cut.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	w, err := openWAL(path, -1)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	recs := walTestRecords()
	appendAll(t, w, recs)
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// twoLen is where record 3's frame starts: the valid prefix of any
	// file cut inside that frame.
	tmp := filepath.Join(dir, "prefix.wal")
	if err := os.WriteFile(tmp, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	_, twoLen, err := readWAL(tmp)
	if err != nil {
		t.Fatal(err)
	}

	for cut := twoLen; cut < int64(len(data)); cut++ {
		if err := os.WriteFile(tmp, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, validLen, err := readWAL(tmp)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 2 {
			t.Fatalf("cut %d: decoded %d records, want 2", cut, len(got))
		}
		if validLen != twoLen {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, validLen, twoLen)
		}
	}

	// Recovery truncates the torn tail and appends cleanly after it.
	if err := os.WriteFile(tmp, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, validLen, err := readWAL(tmp)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := openWAL(tmp, validLen)
	if err != nil {
		t.Fatalf("openWAL after tear: %v", err)
	}
	extra := walRecord{Tick: 3, Edits: []Edit{{Node: 9, Client: 0, Reqs: 1}}}
	if _, err := w2.append(&extra); err != nil {
		t.Fatalf("append after tear: %v", err)
	}
	w2.Close()
	got, _, err := readWAL(tmp)
	if err != nil {
		t.Fatal(err)
	}
	want := append(recs[:2:2], extra)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after tear+append:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWALCRCMismatchEndsLog flips one body byte of the last record: the
// frame fails its checksum and the log ends at the previous record.
func TestWALCRCMismatchEndsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.wal")
	w, err := openWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, walTestRecords())
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, validLen, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records past a bad checksum, want 2", len(got))
	}
	if validLen >= int64(len(data)) {
		t.Fatalf("valid prefix %d includes the corrupt record", validLen)
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	w, err := openWAL(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, walTestRecords())
	if err := w.reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if recs, validLen, err := readWAL(path); err != nil || len(recs) != 0 || validLen != 0 {
		t.Fatalf("after reset: recs=%v len=%d err=%v, want empty", recs, validLen, err)
	}
	rec := walRecord{Tick: 4}
	if _, err := w.append(&rec); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if recs, _, err := readWAL(path); err != nil || len(recs) != 1 || recs[0].Tick != 4 {
		t.Fatalf("after reset+append: recs=%v err=%v", recs, err)
	}
}

// walFrame frames body the way wal.append does, with its true checksum.
func walFrame(body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	return append(b, body...)
}

// FuzzReadWAL feeds arbitrary bytes to the journal reader. It must
// never panic; a successful read reports a valid prefix no longer than
// the file, and re-reading the file cut to that prefix returns the same
// records and length (the recovery path truncates to it); and a frame
// whose checksum matches but whose body does not decode as a record is
// an error, never a replayed record. The seeds are journals written by
// wal.append plus torn, CRC-flipped and CRC-valid-garbage variants.
func FuzzReadWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	w, err := openWAL(path, -1)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range walTestRecords() {
		if _, err := w.append(&rec); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:walHeaderSize-1])
	f.Add(good[:len(good)-1])
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0xff
	f.Add(flipped)
	f.Add(append(append([]byte(nil), good...), walFrame([]byte("{"))...))
	f.Add(walFrame([]byte(`{"tick":"x"}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, err := readWAL(path)

		// Independent frame walk: the records a correct reader replays,
		// the prefix it reports, and whether a checksummed frame fails
		// to decode.
		var want []walRecord
		wantOff, corrupt := int64(0), false
		for rest := data; len(rest) >= walHeaderSize; {
			n := int64(binary.LittleEndian.Uint32(rest))
			if n > maxWALRecord || int64(len(rest))-walHeaderSize < n {
				break
			}
			body := rest[walHeaderSize : walHeaderSize+n]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:]) {
				break
			}
			var rec walRecord
			if json.Unmarshal(body, &rec) != nil {
				corrupt = true
				break
			}
			want = append(want, rec)
			wantOff += walHeaderSize + n
			rest = rest[walHeaderSize+n:]
		}
		if corrupt {
			if err == nil || recs != nil {
				t.Fatalf("checksummed undecodable frame: recs=%v err=%v, want an error", recs, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("readWAL: %v", err)
		}
		if off > int64(len(data)) || off != wantOff || !reflect.DeepEqual(recs, want) {
			t.Fatalf("readWAL = %d records, prefix %d of %d; want %d records, prefix %d",
				len(recs), off, len(data), len(want), wantOff)
		}
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		again, off2, err := readWAL(path)
		if err != nil || off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-read of the %d-byte prefix: %d records, prefix %d, err %v; want %d records",
				off, len(again), off2, err, len(recs))
		}
	})
}

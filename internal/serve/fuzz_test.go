package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamfloat/internal/system"
)

// FuzzStoreDiskJSON hammers the Store's on-disk layer with adversarial keys
// and file contents, through both accessors: the bytes accessor (lookup,
// whose entry bytes /run splices) and the Results accessor (Do). The
// contract under test: a corrupted, truncated, wrong-key, or otherwise
// malformed cache entry degrades to a cache miss on both — compute runs and
// its result is returned — never an error, a panic, or a silently-served
// zero result; any bytes served from disk are exactly the results part of
// a v2 envelope for the key with a matching CRC-32C; and no key, however
// hostile, ever maps to a file outside the cache directory.
//
// This target surfaced two real bugs, both fixed in store.go: keys with
// path separators escaped the cache dir via filepath.Join, and degenerate
// JSON like "null" or "{}" unmarshalled cleanly into a zero Results and was
// served as a hit. Disk entries now live behind safeKey and a versioned,
// checksummed envelope that binds each file to its key.
func FuzzStoreDiskJSON(f *testing.F) {
	valid := newEntry("k", system.Results{Benchmark: "nn"}).file
	f.Add("k", valid)
	f.Add("k", valid[:len(valid)/2]) // truncated mid-JSON
	f.Add("k", []byte("null"))
	f.Add("k", []byte("{}"))
	f.Add("k", bytes.Replace(valid, []byte(`"key":"k"`), []byte(`"key":"other"`), 1)) // mis-renamed entry
	f.Add("k", []byte(`{"Benchmark":"nn"}`))                                          // pre-envelope legacy layout
	f.Add("k", []byte(`{"v":1,"key":"k","results":{"Benchmark":"nn"}}`))              // v1 envelope
	flipped := bytes.Clone(valid)
	flipped[bytes.Index(flipped, []byte(`"nn"`))+1] ^= 0x20 // one byte inside results
	f.Add("k", flipped)
	f.Add("k", append(bytes.Clone(valid), `{}`...))                                           // trailing garbage
	f.Add("k", []byte(`{"v":2,"key":"k","crc32c":99999999999,"results":{"Benchmark":"nn"}}`)) // crc32c out of range
	f.Add("k", []byte(`{"v":2,"key":"k","crc32c":0,"results":}`))                             // empty results
	f.Add("../../escape", valid)
	f.Add("a/b", []byte("x"))
	f.Add("", []byte{0xff, 0x00, 0x7f})
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		dir := t.TempDir()
		plant := func() {
			// The disk layer must confine every key to the cache directory
			// (or refuse it outright).
			st, err := NewStore(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if p := st.diskPath(key); p != "" {
				rel, err := filepath.Rel(dir, p)
				if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
					t.Fatalf("diskPath escapes the cache dir: key %q -> %q", key, p)
				}
				// Plant the fuzzed bytes where diskGet will look.
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Skipf("cannot plant file for key %q: %v", key, err)
				}
			}
		}
		want := system.Results{Benchmark: "fuzz-fresh"}
		computes := 0
		compute := func() (system.Results, error) {
			computes++
			return want, nil
		}

		// The bytes accessor, on a store that has only the planted file.
		plant()
		st, err := NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		e, err := st.lookup(context.Background(), key, compute)
		if err != nil {
			t.Fatalf("lookup returned an error for a corrupt disk entry: %v", err)
		}
		bytesComputes := computes
		switch computes {
		case 0:
			// A disk hit: the served bytes must be exactly the results part
			// of a v2 envelope for this key with a matching checksum.
			crc := crc32.Checksum(e.enc, crc32.MakeTable(crc32.Castagnoli))
			envelope := fmt.Sprintf(`{"v":2,"key":%q,"crc32c":%d,"results":%s}`, key, crc, e.enc)
			if len(e.enc) == 0 || envelope != string(data) {
				t.Fatalf("disk hit served %q from bytes that are not a v2 envelope for key %q", e.enc, key)
			}
		case 1:
			var got system.Results
			if err := json.Unmarshal(e.enc, &got); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("corrupt entry: compute ran but lookup served %q", e.enc)
			}
		default:
			t.Fatalf("compute ran %d times", computes)
		}

		// The Results accessor, on another fresh store over the same planted
		// file: it must hit or miss exactly as the bytes accessor did.
		plant()
		computes = 0
		st, err = NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Do(context.Background(), key, compute)
		if err != nil {
			t.Fatalf("Do returned an error for a corrupt disk entry: %v", err)
		}
		if computes != bytesComputes {
			t.Fatalf("Do computed %d times, the bytes accessor %d", computes, bytesComputes)
		}
		if computes == 0 {
			var served system.Results
			if err := json.Unmarshal(e.enc, &served); err != nil || !reflect.DeepEqual(res, served) {
				t.Fatalf("disk hit does not match the planted entry")
			}
		} else if !reflect.DeepEqual(res, want) {
			t.Fatalf("corrupt entry: compute ran but Do returned %+v", res)
		}

		// Whatever Do wrote back must round-trip from a fresh Store (a new
		// process over the same directory) without recomputing — or, for
		// disk-unsafe keys, recompute cleanly.
		st2, err := NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := st2.Do(context.Background(), key, func() (system.Results, error) {
			return res, nil
		})
		if err != nil {
			t.Fatalf("fresh store Do: %v", err)
		}
		if !reflect.DeepEqual(res2, res) {
			t.Fatalf("disk round-trip changed the result: %+v vs %+v", res2, res)
		}
	})
}

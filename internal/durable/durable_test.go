package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWriteDurableRoundTrip pins the atomic-publish contract every
// whole-file artifact rests on: exact bytes, overwrite, no temp litter.
func TestWriteDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	if err := WriteFile(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if string(mustRead(t, path)) != "hello" {
		t.Fatal("durable write lost bytes")
	}
	if err := WriteFile(path, []byte("goodbye")); err != nil {
		t.Fatal(err)
	}
	if string(mustRead(t, path)) != "goodbye" {
		t.Fatal("durable overwrite lost bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two writes, want 1", len(entries))
	}
	if err := WriteFile(filepath.Join(dir, "no", "such", "x"), nil); err == nil {
		t.Error("write into a missing directory accepted")
	}
}

func TestLogCreateAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := CreateLog(path, []byte("H"), []byte("r1"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("bad\nrecord")); err == nil {
		t.Error("record with a newline accepted")
	}
	if _, err := CreateLog(path+".2", []byte("bad\nheader")); err == nil {
		t.Error("header with a newline accepted")
	}
	data := mustRead(t, path)
	if string(data) != "H\nr1\nr2\n" {
		t.Fatalf("log holds %q", data)
	}
	hdr, recs, torn := ReadLog(data)
	if string(hdr) != "H" || len(recs) != 2 || string(recs[0]) != "r1" || string(recs[1]) != "r2" || torn {
		t.Fatalf("ReadLog = %q %q torn=%v", hdr, recs, torn)
	}
}

// TestReadLogHeaderWithoutNewline: a file published whole (no trailing
// newline) is a header with zero records, not a torn line.
func TestReadLogHeaderWithoutNewline(t *testing.T) {
	hdr, recs, torn := ReadLog([]byte(`{"version":1}`))
	if string(hdr) != `{"version":1}` || len(recs) != 0 || torn {
		t.Fatalf("ReadLog = %q %q torn=%v", hdr, recs, torn)
	}
}

// TestReadLogTornTail: only an unterminated line after the header is torn.
func TestReadLogTornTail(t *testing.T) {
	hdr, recs, torn := ReadLog([]byte("H\nr1\nr2-cut"))
	if string(hdr) != "H" || len(recs) != 1 || string(recs[0]) != "r1" || !torn {
		t.Fatalf("ReadLog = %q %q torn=%v", hdr, recs, torn)
	}
}

// TestLogStaleHandleFenced: re-creating the log orphans the previous
// generation's inode, so appends through a handle opened before can never
// reach the live file.
func TestLogStaleHandleFenced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	stale, err := CreateLog(path, []byte("H1"))
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	live, err := CreateLog(path, []byte("H2"), []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := stale.Append([]byte("zombie")); err != nil {
		t.Fatal(err)
	}
	if err := live.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := string(mustRead(t, path)); got != "H2\na\nb\n" {
		t.Fatalf("live log holds %q", got)
	}
}

// FuzzReadLog checks the framing rule on arbitrary bytes: no panic, no
// newline inside a record, header and records re-join to a prefix of the
// input, and torn is reported exactly when a non-header final line lacks
// its newline.
func FuzzReadLog(f *testing.F) {
	for _, seed := range []string{"", "H", "H\n", "H\nr1\nr2\n", "H\nr1\nr2", "\n\n", "\nx", "H\n\nr\n"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, torn := ReadLog(data)
		joined := append([]byte(nil), hdr...)
		for _, r := range recs {
			if bytes.IndexByte(r, '\n') >= 0 {
				t.Fatalf("record %q contains a newline", r)
			}
			joined = append(append(joined, '\n'), r...)
		}
		if bytes.IndexByte(hdr, '\n') >= 0 || !bytes.HasPrefix(data, joined) {
			t.Fatalf("header %q + records %q do not frame a prefix of %q", hdr, recs, data)
		}
		wantTorn := bytes.IndexByte(data, '\n') >= 0 && !strings.HasSuffix(string(data), "\n")
		if torn != wantTorn {
			t.Fatalf("torn=%v for %q, want %v", torn, data, wantTorn)
		}
		if !torn && len(data) > len(joined)+1 {
			t.Fatalf("intact log %q lost bytes: framed only %q", data, joined)
		}
	})
}

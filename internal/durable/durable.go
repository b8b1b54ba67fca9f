// Package durable is the one crash-safety substrate every persistent file
// in the repository is built on. It has two primitives:
//
//   - WriteFile publishes a whole file atomically: temp file in the
//     destination directory, fsync, rename, directory fsync. A crash at
//     any instant leaves either the previous complete file or the new one.
//   - Log is an append-only record log. Creating (or compacting) it
//     publishes a prefix — one header line plus optional records — through
//     the same rename, then keeps the published file open for appends;
//     each Append writes one newline-terminated record and fsyncs it.
//
// Because the prefix is published by rename, the header line is never
// torn, and a handle still open on an older generation of the file points
// at an orphaned inode: its appends can never reach the live log. ReadLog
// applies the matching read rule. Callers own the header and record
// encodings and their validation.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile publishes data at path atomically and durably. A crash at any
// instant leaves either the previous complete file or the new complete one
// on disk — never a torn write.
func WriteFile(path string, data []byte) error {
	f, err := publish(path, data)
	if err != nil {
		return err
	}
	return f.Close()
}

// publish writes data to a temp file next to path, fsyncs it, renames it
// over path and fsyncs the directory, returning the still-open handle of
// the published file (positioned at its end).
func publish(path string, data []byte) (*os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("durable: temp file: %w", err)
	}
	fail := func(err error) (*os.File, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("durable: write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("durable: sync: %w", err))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(fmt.Errorf("durable: publish: %w", err))
	}
	// The rename is durable only once the directory entry is: without the
	// directory sync a crash immediately after the write can roll the file
	// back to the previous version — or, for a first write, to nothing.
	if err := syncDir(dir); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("durable: sync directory: %w", err)
	}
	return tmp, nil
}

// syncDir fsyncs a directory, making renamed or created entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Log is an open append-only record log. It is not safe for concurrent
// use; each log has a single writer.
type Log struct{ f *os.File }

// errNewline rejects a header or record that would break the line framing.
var errNewline = errors.New("durable: log line contains a newline")

// CreateLog publishes header and records as the complete contents of path
// (replacing any previous file, which fences every handle still open on
// it) and returns the log open for appends.
func CreateLog(path string, header []byte, records ...[]byte) (*Log, error) {
	var buf []byte
	for _, line := range append([][]byte{header}, records...) {
		if bytes.IndexByte(line, '\n') >= 0 {
			return nil, errNewline
		}
		buf = append(append(buf, line...), '\n')
	}
	f, err := publish(path, buf)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes one record and fsyncs it: once Append returns, the record
// survives a crash, and only an append in flight can leave a torn line.
func (l *Log) Append(record []byte) error {
	if bytes.IndexByte(record, '\n') >= 0 {
		return errNewline
	}
	// The full slice expression makes append copy rather than write the
	// newline into the caller's spare capacity.
	if _, err := l.f.Write(append(record[:len(record):len(record)], '\n')); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: append sync: %w", err)
	}
	return nil
}

// Close releases the log's file handle.
func (l *Log) Close() error { return l.f.Close() }

// ReadLog splits a log's contents into its header and intact records. The
// first line is the header: it was published by rename, so it is never
// torn and may lack a final newline (a file written whole by WriteFile
// reads as a header with no records). After the header, an unterminated
// final line can only be an append cut short by a crash; it is dropped
// and torn reports it.
func ReadLog(data []byte) (header []byte, records [][]byte, torn bool) {
	header, rest, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return data, nil, false
	}
	for len(rest) > 0 {
		line, tail, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return header, records, true
		}
		records = append(records, line)
		rest = tail
	}
	return header, records, false
}

package orchestrate

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"sort"
)

// lineRef locates one line (newline included) in a lineLog's file.
type lineRef struct{ off, n int64 }

// lineLog is an append-only JSON Lines file indexed in memory by key:
// the index maps each key to its latest line, so records stay on disk
// and are decoded only when asked for. The result cache (the Store's
// cold tier) and the manifest journal both sit on it. Owners serialize
// appends and index access; indexed lines never change, so reading one
// needs no lock.
type lineLog struct {
	file  *os.File
	index map[string]lineRef
	bytes int64 // bytes of indexed lines
}

// add indexes a line at off under key.
func (l *lineLog) add(key string, off, n int64) {
	l.bytes += n - l.index[key].n
	l.index[key] = lineRef{off, n}
}

// appendLine writes one encoded, newline-terminated line and indexes it
// under key. The file is opened O_APPEND, so the write lands at the true
// end even if another process appended since; the offset after it
// locates the line.
func (l *lineLog) appendLine(key string, line []byte) error {
	if _, err := l.file.Write(line); err != nil {
		return err
	}
	end, err := l.file.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	l.add(key, end-int64(len(line)), int64(len(line)))
	return nil
}

// readLine returns the line ref points at.
func readLine(f *os.File, ref lineRef) ([]byte, error) {
	b := make([]byte, ref.n)
	_, err := f.ReadAt(b, ref.off)
	return b, err
}

// sortedKeys returns the indexed keys in order.
func (l *lineLog) sortedKeys() []string {
	keys := make([]string, 0, len(l.index))
	for k := range l.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scanLines calls fn with the offset and bytes of every line in f, the
// newline included (a torn final line lacks it). A line past 16 MiB is a
// torn tail, not a record: scanning stops there with bufio.ErrTooLong.
func scanLines(f *os.File, fn func(off int64, line []byte)) error {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	var off int64
	for sc.Scan() {
		fn(off, sc.Bytes())
		off += int64(len(sc.Bytes()))
	}
	return sc.Err()
}

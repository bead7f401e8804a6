package durable

import (
	"errors"
	"os"
	"path/filepath"

	"met/internal/kv"
)

// TailFileName is the shipped WAL-tail file the replicator maintains in
// each follower's replica directory, next to the copied SSTables. It
// holds the primary's durable-but-unflushed records for that region in
// the standard segment format; Master.RecoverServer replays it over the
// replica SSTables so a failover loses at most the unsynced in-flight
// window instead of the whole memstore.
//
// The file grows by appends (AppendTailFile): each ship adds only the
// records synced since the previous one. It may also hold records a
// flush has since moved into an SSTable — replay skips what the files
// cover — and it shrinks only when it is rewritten whole
// (WriteTailFile): on the first ship to a directory, after a failed
// append, and when a reconcile drops flushed records whose SSTables it
// has already copied into the same directory.
const TailFileName = "wal-tail.log"

// TailFilePath returns the tail file's path inside a replica directory.
func TailFilePath(replicaDir string) string {
	return filepath.Join(replicaDir, TailFileName)
}

// encodeTail appends the frames of a tail file holding entries to buf.
func encodeTail(buf []byte, entries []kv.Entry) []byte {
	for _, e := range entries {
		buf = append(buf, encodeRecord("", e, false)...)
	}
	return buf
}

// WriteTailFile atomically replaces path with a tail file holding
// entries (write to temp, fsync, rename, fsync dir). An empty entries
// slice removes the file — the tail was flushed into shipped SSTables.
// It returns the physical bytes written (for I/O budgeting).
func WriteTailFile(path string, entries []kv.Entry, noSync bool) (int64, error) {
	if len(entries) == 0 {
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				return 0, nil
			}
			return 0, err
		}
		return 0, syncDir(filepath.Dir(path), noSync)
	}
	buf := encodeTail(append([]byte(walMagic), walVersion), entries)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := syncFile(f, noSync); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(filepath.Dir(path), noSync); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// AppendTailFile appends entries to the tail file at path and fsyncs
// it; a missing file is created as by WriteTailFile. It returns the
// physical bytes written. The file must end on a whole frame: replay
// stops at the first torn frame, so anything appended after one is
// invisible. After a failed append — which may have left part of a
// frame behind — the caller must rewrite the file with WriteTailFile
// before appending to it again.
func AppendTailFile(path string, entries []kv.Entry, noSync bool) (int64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return WriteTailFile(path, entries, noSync)
	}
	if err != nil {
		return 0, err
	}
	buf := encodeTail(nil, entries)
	_, err = f.Write(buf)
	if err == nil {
		err = syncFile(f, noSync)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// ReadTailFile reads a shipped tail file back. A missing file is an
// empty tail. A torn or corrupt frame — the file was mid-ship when the
// follower's host died — ends the read at the last good record and
// reports torn; everything before it is intact (CRC-verified) and safe
// to replay. Only real I/O errors are returned.
func ReadTailFile(path string) (entries []kv.Entry, torn bool, err error) {
	err = readSegment(path, func(r walRecord) {
		if !r.drop {
			entries = append(entries, r.e)
		}
	})
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		if errors.Is(err, ErrCorrupt) {
			return entries, true, nil
		}
		return nil, false, err
	}
	return entries, false, nil
}

// SSTableMaxTimestamp reads the max-timestamp property of the SSTable
// at path without loading its data blocks. Recovery uses it to rank
// candidate replica sources by how much of the dead region's history
// their files cover.
func SSTableMaxTimestamp(path string) (uint64, error) {
	t, err := openSSTable(path)
	if err != nil {
		return 0, err
	}
	defer t.Close()
	return t.meta.MaxTS, nil
}

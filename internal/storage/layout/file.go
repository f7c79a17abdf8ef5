package layout

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
)

// tmpSeq numbers WriteFile's temporary files, so that two calls in one
// process never share one.
var tmpSeq atomic.Uint64

// WriteFile replaces the file at path with what write writes, without ever
// truncating it: the bytes go to <path>.tmp-<pid>-<n> in the same directory,
// a name no other call uses, which is synced and then renamed over path; the
// directory is synced after the rename, so the new entry is durable when
// WriteFile returns. A process that has the old file mapped keeps its inode
// and reads the old bytes until it reopens — truncating a mapped file in
// place would fault its next read of a page past the new end. When anything
// fails before the rename the temporary file is removed and the old file, if
// any, is left as it was. Every writer of a view file goes through here.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, fmt.Sprintf("%s.tmp-%d-%d", filepath.Base(path), os.Getpid(), tmpSeq.Add(1)))
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes dir's entries to disk. Windows cannot open a directory
// for a sync, so there it does nothing.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
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

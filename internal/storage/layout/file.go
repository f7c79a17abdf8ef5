package layout

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile replaces the file at path with what write writes, without ever
// truncating it: the bytes go to <path>.tmp-<pid> in the same directory,
// which is synced and then renamed over path. A process that has the old
// file mapped keeps its inode and reads the old bytes until it reopens —
// truncating a mapped file in place would fault its next read of a page
// past the new end. When anything fails the temporary file is removed and
// the old file, if any, is left as it was. Every writer of a view file
// goes through here.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	tmp := filepath.Join(filepath.Dir(path), fmt.Sprintf("%s.tmp-%d", filepath.Base(path), os.Getpid()))
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
	return os.Rename(tmp, path)
}

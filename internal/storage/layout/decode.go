package layout

import (
	"io"
)

// Header is what a .wvls file declares before its values: the database
// identity it embeds (nil for a bare layout), the domain size and the number
// of nonzero coefficients.
type Header struct {
	Meta    *Meta
	Cells   int
	Nonzero int
}

// Decode reads the .wvls file r holds from its current offset on into a
// caller's memory. It loads r as Open loads a file — mapped when r is a
// regular file, read once into memory otherwise — hands the header to
// begin, whose error is returned as is, and runs Walk's pass into the
// function begin returned: every nonzero coefficient in ascending key order.
// Sizes the header announces are checked against the bytes r held before
// anything is allocated from them. A dense file's later block can still fail
// its check after earlier values went, so a caller must not publish what it
// received unless Decode returns nil. Nothing of the file is kept.
func Decode(r io.Reader, begin func(*Header) (func(key int, value float64), error)) (err error) {
	s, err := open(r)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	emit, err := begin(&Header{Meta: s.meta, Cells: s.g.cells, Nonzero: s.g.nonzero})
	if err != nil {
		return err
	}
	return s.walk(visitor{emit: emit})
}

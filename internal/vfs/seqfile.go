package vfs

import "io"

// SeqFile adapts a positional File to the sequential io.Reader /
// io.Writer / io.Seeker interfaces, maintaining the current offset on
// the client side — exactly the division of labor the Chirp protocol
// prescribes (§4: "the client is responsible for maintaining state
// such as the current file descriptor position").
type SeqFile struct {
	f   File
	off int64
}

var (
	_ io.ReadWriteSeeker = (*SeqFile)(nil)
	_ io.Closer          = (*SeqFile)(nil)
)

// NewSeqFile wraps f with a client-side offset starting at zero.
func NewSeqFile(f File) *SeqFile { return &SeqFile{f: f} }

// Read reads from the current offset; returns io.EOF at end of file.
func (s *SeqFile) Read(p []byte) (int, error) {
	n, err := s.f.Pread(p, s.off)
	s.off += int64(n)
	if err != nil {
		return n, err
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Write writes all of p at the current offset, looping over short
// writes as io.Writer requires.
func (s *SeqFile) Write(p []byte) (int, error) {
	if err := WriteAll(s.f, p, s.off); err != nil {
		return 0, err
	}
	s.off += int64(len(p))
	return len(p), nil
}

// Seek repositions the offset.
func (s *SeqFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.off = offset
	case io.SeekCurrent:
		s.off += offset
	case io.SeekEnd:
		fi, err := s.f.Fstat()
		if err != nil {
			return s.off, err
		}
		s.off = fi.Size + offset
	default:
		return s.off, EINVAL
	}
	if s.off < 0 {
		s.off = 0
		return 0, EINVAL
	}
	return s.off, nil
}

// Offset returns the current offset.
func (s *SeqFile) Offset() int64 { return s.off }

// File returns the underlying positional file.
func (s *SeqFile) File() File { return s.f }

// Close closes the underlying file.
func (s *SeqFile) Close() error { return s.f.Close() }

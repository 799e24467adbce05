package vfs

import "io"

// readFileHint is the most ReadFile allocates on the word of Fstat.
const readFileHint = 1 << 20

// ReadFile reads the entire named file through fs.
func ReadFile(fs FileSystem, path string) ([]byte, error) {
	f, err := fs.Open(path, O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Fstat()
	if err != nil {
		return nil, err
	}
	// One byte beyond the stat size, so the probe for end of file fits
	// the same buffer; a file that grew since is read on to EOF. The
	// size is only a hint (a remote peer may claim anything), so it is
	// clamped and the buffer grows as bytes really arrive.
	out := make([]byte, 0, min(max(fi.Size, 0), readFileHint)+1)
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := f.Pread(out[len(out):cap(out)], int64(len(out)))
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = out[:len(out)+n]
	}
}

// OpenStat opens the named file and reports its attributes, in one
// round trip when fs has the OpenStater fast path and as open + fstat
// otherwise.
func OpenStat(fs FileSystem, path string, flags int, mode uint32) (File, FileInfo, error) {
	if o := Capabilities(fs).OpenStater; o != nil {
		return o.OpenStat(path, flags, mode)
	}
	f, err := fs.Open(path, flags, mode)
	if err != nil {
		return nil, FileInfo{}, err
	}
	fi, err := f.Fstat()
	if err != nil {
		f.Close()
		return nil, FileInfo{}, err
	}
	return f, fi, nil
}

// WriteFile creates or replaces the named file with data.
func WriteFile(fs FileSystem, path string, data []byte, mode uint32) error {
	f, err := fs.Open(path, O_WRONLY|O_CREAT|O_TRUNC, mode)
	if err != nil {
		return err
	}
	var off int64
	for len(data) > 0 {
		n, err := f.Pwrite(data, off)
		if err != nil {
			f.Close()
			return err
		}
		data = data[n:]
		off += int64(n)
	}
	return f.Close()
}

// CopyFile streams the file at srcPath on src to dstPath on dst using
// blockSize transfers, returning the number of bytes copied.
func CopyFile(dst FileSystem, dstPath string, src FileSystem, srcPath string, blockSize int) (int64, error) {
	if blockSize <= 0 {
		blockSize = 64 << 10
	}
	in, err := src.Open(srcPath, O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := dst.Open(dstPath, O_WRONLY|O_CREAT|O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, blockSize)
	var off int64
	for {
		n, err := in.Pread(buf, off)
		if err != nil {
			out.Close()
			return off, err
		}
		if n == 0 {
			break
		}
		w := buf[:n]
		woff := off
		for len(w) > 0 {
			m, err := out.Pwrite(w, woff)
			if err != nil {
				out.Close()
				return woff, err
			}
			w = w[m:]
			woff += int64(m)
		}
		off += int64(n)
	}
	return off, out.Close()
}

// Exists reports whether the named path exists on fs.
func Exists(fs FileSystem, path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// WriteAll writes all of p at off, looping over short writes.
func WriteAll(f File, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := f.Pwrite(p, off)
		if err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// ReadFull reads exactly len(p) bytes at off, or returns an error.
// Premature end of file yields io.ErrUnexpectedEOF.
func ReadFull(f File, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := f.Pread(p, off)
		if err != nil {
			return err
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

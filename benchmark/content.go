package main

import (
	"encoding/binary"
	"hash/fnv"
)

// Every byte the benchmark stores is a pure function of (stream key,
// byte offset), so any read — through the stack during a unit, or
// straight off the export directory during the audit — can be checked
// without keeping a copy of what was written. A stream key names one
// version of one file: keyOf(path, version).

// keyOf derives the content stream key for one version of a file.
func keyOf(path string, version uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return mix(h.Sum64() + version*0x9E3779B97F4A7C15)
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// word is the 8-byte content word at word index i of stream key.
func word(key uint64, i uint64) uint64 {
	return mix(key + (i+1)*0x9E3779B97F4A7C15)
}

// fill writes the bytes of stream key at byte offset off into p. Both
// off and len(p) must be multiples of 8; every size the benchmark uses
// is.
func fill(p []byte, key uint64, off int64) {
	i := uint64(off >> 3)
	for n := 0; n+8 <= len(p); n += 8 {
		binary.LittleEndian.PutUint64(p[n:], word(key, i))
		i++
	}
}

// matches reports whether p holds exactly the bytes of stream key at
// byte offset off.
func matches(p []byte, key uint64, off int64) bool {
	if len(p)&7 != 0 {
		return false
	}
	i := uint64(off >> 3)
	for n := 0; n < len(p); n += 8 {
		if binary.LittleEndian.Uint64(p[n:]) != word(key, i) {
			return false
		}
		i++
	}
	return true
}

package proto

import (
	"bytes"
	"encoding/hex"
	"fmt"
)

// The digest trailer is one extra protocol line after the raw bytes of
// a getfilesum/putfilesum body (and the sole payload of a checksum
// response): "<algo>:<hexdigest>". Keeping it a distinct line preserves
// the protocol's framing — a peer that has consumed the body can always
// resynchronize at the next newline, digest or not.

// MaxDigestLen bounds the decoded digest size: sha512 is 64 bytes, and
// nothing larger is on the horizon.
const MaxDigestLen = 64

// AppendDigestTrailer appends the trailer line (without newline) for an
// algorithm name and raw digest bytes to dst.
func AppendDigestTrailer(dst []byte, algo string, sum []byte) []byte {
	dst = AppendEscape(dst, algo)
	dst = append(dst, ':')
	n := len(dst)
	dst = append(dst, make([]byte, hex.EncodedLen(len(sum)))...)
	hex.Encode(dst[n:], sum)
	return dst
}

// MarshalDigestTrailer encodes a digest trailer line.
func MarshalDigestTrailer(algo string, sum []byte) string {
	return string(AppendDigestTrailer(nil, algo, sum))
}

// ParseDigestTrailer decodes a digest trailer line into the algorithm
// name and raw digest bytes; the line may be a ReadLine view. The hex
// digest cannot contain a colon, so the split point is the last one;
// algorithm names containing colons therefore round-trip.
func ParseDigestTrailer(line []byte) (algo string, sum []byte, err error) {
	colon := bytes.LastIndexByte(line, ':')
	if colon <= 0 {
		return "", nil, fmt.Errorf("proto: malformed digest trailer %q", string(line))
	}
	algo, err = unescape(line[:colon])
	if err != nil {
		return "", nil, err
	}
	hexSum := line[colon+1:]
	if len(hexSum) == 0 || len(hexSum)%2 != 0 || len(hexSum) > 2*MaxDigestLen {
		return "", nil, fmt.Errorf("proto: malformed digest trailer %q", string(line))
	}
	sum = make([]byte, hex.DecodedLen(len(hexSum)))
	if _, err := hex.Decode(sum, hexSum); err != nil {
		return "", nil, fmt.Errorf("proto: malformed digest trailer %q", string(line))
	}
	return algo, sum, nil
}

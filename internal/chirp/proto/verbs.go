package proto

import "tss/internal/token"

// Field names the Request field one argument fills. The field also
// fixes how the argument travels: ArgPath and ArgPath2 are escaped
// paths, the other string fields escaped tokens, ArgMode is octal and
// every other number decimal.
type Field uint8

const (
	ArgPath Field = iota
	ArgPath2
	ArgSubject
	ArgRights
	ArgAlgo
	ArgSum
	ArgFD
	ArgLength
	ArgOffset
	ArgFlags
	ArgMode
	ArgSize
	ArgBudget
)

// arg returns the Request field f names: a string or a number, the
// other pointer nil.
func (q *Request) arg(f Field) (*string, *int64) {
	switch f {
	case ArgPath:
		return &q.Path, nil
	case ArgPath2:
		return &q.Path2, nil
	case ArgSubject:
		return &q.Subject, nil
	case ArgRights:
		return &q.Rights, nil
	case ArgAlgo:
		return &q.Algo, nil
	case ArgSum:
		return &q.Sum, nil
	case ArgFD:
		return nil, &q.FD
	case ArgLength:
		return nil, &q.Length
	case ArgOffset:
		return nil, &q.Offset
	case ArgFlags:
		return nil, &q.Flags
	case ArgMode:
		return nil, &q.Mode
	case ArgSize:
		return nil, &q.Size
	case ArgBudget:
		return nil, &q.Budget
	}
	panic("proto: undeclared argument field")
}

// base is the radix a numeric field is written in.
func (f Field) base() int {
	if f == ArgMode {
		return 8
	}
	return 10
}

// Body says what, if anything, the client sends after the request line.
// A receiver that refuses the request before running it must consume a
// blind body to keep the stream framed.
type Body uint8

const (
	// NoBody: the request is the line alone.
	NoBody Body = iota
	// BodyLength: Length raw bytes follow the line unasked.
	BodyLength
	// BodyTrailer: like BodyLength, then a digest trailer line when
	// Algo is non-empty.
	BodyTrailer
	// BodyTwoPhase: Length raw bytes and a digest trailer line follow
	// only after the server answered the line with a ready status, so a
	// refusal arrives with nothing to consume.
	BodyTwoPhase
)

// Feature is the protocol extension a verb arrived with. A server that
// predates a group answers EINVAL to every verb in it, which is how a
// client discovers what its peer speaks.
type Feature uint8

const (
	// Base is the paper's §4 verb set; every server speaks it.
	Base Feature = iota
	// Sums is the end-to-end digest verbs.
	Sums
	// Parts is the multipart transfer verbs.
	Parts
	// Leases is the read-lease verbs of the caching tier.
	Leases
	// Deadline is the pipelined deadline prefix.
	Deadline
)

// Bit is the feature's position in a feature-set mask.
func (f Feature) Bit() uint32 { return 1 << f }

// Verb declares one wire verb: everything the encoder, the parser, the
// server's dispatch and the client's negotiation need to know about it.
type Verb struct {
	Name string
	// Args is the argument layout, in wire order.
	Args    []Field
	Body    Body
	Feature Feature
	// Prefix marks a verb that annotates the request line pipelined
	// behind it instead of being an RPC of its own.
	Prefix bool
}

// Verbs is the wire protocol's verb table. Adding a verb is one entry
// here, one handler in the server's join (internal/chirp) and the
// client method that sends it.
var Verbs = []Verb{
	{Name: "open", Args: []Field{ArgPath, ArgFlags, ArgMode}},
	{Name: "pread", Args: []Field{ArgFD, ArgLength, ArgOffset}},
	{Name: "pwrite", Args: []Field{ArgFD, ArgLength, ArgOffset}, Body: BodyLength},
	{Name: "fstat", Args: []Field{ArgFD}},
	{Name: "fsync", Args: []Field{ArgFD}},
	{Name: "ftruncate", Args: []Field{ArgFD, ArgSize}},
	{Name: "close", Args: []Field{ArgFD}},
	{Name: "stat", Args: []Field{ArgPath}},
	{Name: "unlink", Args: []Field{ArgPath}},
	{Name: "rename", Args: []Field{ArgPath, ArgPath2}},
	{Name: "mkdir", Args: []Field{ArgPath, ArgMode}},
	{Name: "rmdir", Args: []Field{ArgPath}},
	{Name: "getdir", Args: []Field{ArgPath}},
	{Name: "getfile", Args: []Field{ArgPath}},
	{Name: "putfile", Args: []Field{ArgPath, ArgMode, ArgLength}, Body: BodyLength},
	{Name: "truncate", Args: []Field{ArgPath, ArgSize}},
	{Name: "chmod", Args: []Field{ArgPath, ArgMode}},
	{Name: "getacl", Args: []Field{ArgPath}},
	{Name: "setacl", Args: []Field{ArgPath, ArgSubject, ArgRights}},
	{Name: "statfs"},
	{Name: "whoami"},
	{Name: "checksum", Args: []Field{ArgPath, ArgAlgo}, Feature: Sums},
	{Name: "getfilesum", Args: []Field{ArgPath, ArgAlgo}, Feature: Sums},
	{Name: "putfilesum", Args: []Field{ArgPath, ArgMode, ArgLength, ArgAlgo}, Body: BodyTwoPhase, Feature: Sums},
	{Name: "putbegin", Args: []Field{ArgPath, ArgMode, ArgSize}, Feature: Parts},
	{Name: "putpart", Args: []Field{ArgPath, ArgOffset, ArgLength, ArgAlgo}, Body: BodyTrailer, Feature: Parts},
	{Name: "putcomplete", Args: []Field{ArgPath, ArgSize, ArgAlgo, ArgSum}, Feature: Parts},
	{Name: "getpart", Args: []Field{ArgPath, ArgOffset, ArgLength, ArgAlgo}, Feature: Parts},
	{Name: "lease", Args: []Field{ArgPath}, Feature: Leases},
	{Name: "leasebreak", Args: []Field{ArgFD}, Feature: Leases},
	{Name: "deadline", Args: []Field{ArgBudget}, Feature: Deadline, Prefix: true},
}

var verbByName = func() map[string]*Verb {
	m := make(map[string]*Verb, len(Verbs))
	for i := range Verbs {
		m[Verbs[i].Name] = &Verbs[i]
	}
	return m
}()

// Lookup returns the table entry for a verb name, or nil.
func Lookup(name string) *Verb { return verbByName[name] }

// VerbOf returns the verb of a request line, its first token, without
// parsing the arguments. The result is a view into line.
func VerbOf(line []byte) []byte {
	var f [1][]byte
	token.Split(f[:], line)
	return f[0]
}

package proto

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"tss/internal/token"
)

// sampleStrings and sampleInts are the fixed argument values the table
// tests fill a verb's layout with: a typical set, and an edge set of
// empty strings, bytes that need escaping, and negative numbers.
var sampleStrings = [2]map[Field]string{
	{
		ArgPath: "/data/run-0042/events.dat", ArgPath2: "/data/run-0042/events.old",
		ArgSubject: "hostname:*.nd.edu", ArgRights: "v(rwla)",
		ArgAlgo: "crc32c", ArgSum: "0a1b2c3d",
	},
	{
		ArgPath: "/a b\tc%d\n\x00", ArgPath2: "", ArgSubject: "", ArgRights: " ",
		ArgAlgo: "", ArgSum: "",
	},
}

var sampleInts = [2]map[Field]int64{
	{
		ArgFD: 7, ArgLength: 65536, ArgOffset: 1 << 30, ArgFlags: 577,
		ArgMode: 0o644, ArgSize: 12345, ArgBudget: 5000,
	},
	{
		ArgFD: -1, ArgLength: 0, ArgOffset: -9, ArgFlags: math.MinInt64,
		ArgMode: 0o7777, ArgSize: math.MaxInt64, ArgBudget: -1,
	},
}

// sampleRequest builds a Request carrying exactly the fields v's layout
// names, filled from sample set n.
func sampleRequest(v *Verb, n int) *Request {
	q := &Request{Verb: v.Name}
	for _, f := range v.Args {
		if s, i := q.arg(f); s != nil {
			*s = sampleStrings[n][f]
		} else {
			*i = sampleInts[n][f]
		}
	}
	return q
}

// eachSample calls fn for every table entry under every sample set, in
// table order — the order of testdata/golden_requests.txt.
func eachSample(fn func(v *Verb, q *Request)) {
	for i := range Verbs {
		for n := range sampleStrings {
			fn(&Verbs[i], sampleRequest(&Verbs[i], n))
		}
	}
}

func TestVerbTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i := range Verbs {
		v := &Verbs[i]
		if seen[v.Name] {
			t.Errorf("verb %q declared twice", v.Name)
		}
		seen[v.Name] = true
		if Lookup(v.Name) != v {
			t.Errorf("Lookup(%q) does not return the table entry", v.Name)
		}
		used := map[Field]bool{}
		for _, f := range v.Args {
			if used[f] {
				t.Errorf("%s: field %d appears twice in the layout", v.Name, f)
			}
			used[f] = true
		}
		if v.Body != NoBody && !used[ArgLength] {
			t.Errorf("%s: declares a body but no Length argument to frame it", v.Name)
		}
		if v.Body >= BodyTrailer && !used[ArgAlgo] {
			t.Errorf("%s: declares a digest trailer but no Algo argument", v.Name)
		}
		if v.Prefix && v.Body != NoBody {
			t.Errorf("%s: a prefix verb cannot carry a body", v.Name)
		}
	}
	if Lookup("frobnicate") != nil {
		t.Error("Lookup invented an entry for an undeclared verb")
	}
}

// A Request built from each entry's layout must survive
// AppendTo→ParseRequest field for field.
func TestVerbTableRoundTrip(t *testing.T) {
	eachSample(func(v *Verb, q *Request) {
		line, err := q.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", v.Name, err)
		}
		if got := string(VerbOf([]byte(line))); got != v.Name {
			t.Errorf("VerbOf(%q) = %q", line, got)
		}
		got, err := ParseRequest(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Errorf("round trip %s:\n in: %+v\nout: %+v\nline: %q", v.Name, q, got, line)
		}
	})
}

// The bytes on the wire are pinned: testdata/golden_requests.txt was
// written by the per-verb switch encoder the table replaced, over the
// same samples in the same order.
func TestGoldenRequestLines(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_requests.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	i := 0
	eachSample(func(v *Verb, q *Request) {
		line, err := q.Encode()
		if err != nil {
			t.Fatalf("encode %s: %v", v.Name, err)
		}
		if i >= len(golden) {
			t.Fatalf("no golden line for %s (file has %d lines)", v.Name, len(golden))
		}
		if line != golden[i] {
			t.Errorf("%s encodes differently from the golden line:\n got %q\nwant %q", v.Name, line, golden[i])
		}
		i++
	})
	if i != len(golden) {
		t.Errorf("golden file has %d lines, table produced %d", len(golden), i)
	}
}

func TestVerbOfMatchesTokenizer(t *testing.T) {
	for _, line := range []string{"stat /x", "  stat\t/x", "\twhoami", "whoami", "", "  ", "deadline 5"} {
		var f [1][]byte
		token.Split(f[:], []byte(line))
		if got, want := string(VerbOf([]byte(line))), string(f[0]); got != want {
			t.Errorf("VerbOf(%q) = %q, tokenizer says %q", line, got, want)
		}
	}
}

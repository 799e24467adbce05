package token

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSplit(t *testing.T) {
	for _, c := range []struct {
		line string
		want []string
	}{
		{"", nil},
		{" \t ", nil},
		{"stat /x", []string{"stat", "/x"}},
		{"  stat\t/x  ", []string{"stat", "/x"}},
		{"a b c", []string{"a b", "c"}},
		{"a\nb", []string{"a\nb"}},
	} {
		var out [4][]byte
		n := Split(out[:], []byte(c.line))
		if n != len(c.want) {
			t.Errorf("Split(%q) = %d tokens, want %d", c.line, n, len(c.want))
			continue
		}
		for i, w := range c.want {
			if string(out[i]) != w {
				t.Errorf("Split(%q)[%d] = %q, want %q", c.line, i, out[i], w)
			}
		}
	}
}

// Past the end of out, Split keeps counting and stores nothing.
func TestSplitCountsPastOut(t *testing.T) {
	var out [2][]byte
	if n := Split(out[:], []byte("a b c d")); n != 4 {
		t.Fatalf("Split counted %d tokens, want 4", n)
	}
	if string(out[0]) != "a" || string(out[1]) != "b" {
		t.Errorf("stored %q %q, want a b", out[0], out[1])
	}
	if n := Split(nil, []byte(" x ")); n != 1 {
		t.Errorf("Split into nil counted %d tokens, want 1", n)
	}
}

// Split agrees with strings.Fields on lines whose only whitespace is
// ASCII space and tab.
func TestSplitMatchesFields(t *testing.T) {
	f := func(s string) bool {
		s = strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' || r > 0x7f || r < 0x21 {
				return ' '
			}
			return r
		}, s)
		want := strings.Fields(s)
		out := make([][]byte, len(s)+1)
		n := Split(out, []byte(s))
		if n != len(want) {
			return false
		}
		for i := range want {
			if string(out[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAllocatesNothing(t *testing.T) {
	line := []byte("pread 7 65536 1073741824")
	var out [8][]byte
	if n := testing.AllocsPerRun(200, func() { Split(out[:], line) }); n != 0 {
		t.Errorf("Split allocates %.1f/op, want 0", n)
	}
}

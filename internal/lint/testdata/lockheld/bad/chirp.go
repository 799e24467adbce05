package bad

import (
	"bufio"
	"sync"

	"tss/internal/chirp/proto"
)

// Conn is one protocol connection with its reader.
type Conn struct {
	mu sync.Mutex
	br *bufio.Reader
}

// Answer reads a status line and a reply line while holding the lock:
// the Chirp readers block on the peer like any socket read, so dropping
// either from the blocking table fails this fixture.
func (c *Conn) Answer() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := proto.ReadCode(c.br); err != nil {
		return nil, err
	}
	return proto.ReadLine(c.br)
}

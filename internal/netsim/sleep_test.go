package netsim

import (
	"errors"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"time"
)

// cpuTime is the CPU the process has used so far, user and system.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median sorts d and returns its middle element.
func median(d []time.Duration) time.Duration {
	slices.Sort(d)
	return d[len(d)/2]
}

// TestLinkWaitsWithoutSpinning pins the two halves of a simulated
// link's job at once. Round trips over Fast100 keep their latency, a
// median within 25 µs of the 200 µs the profile prices, while the
// process stays mostly idle: a reader sleeps until its data is due
// instead of yielding the whole wait, which kept a CPU busy per wait.
// The round trips run in batches of 100, at least five and, while no
// batch's median meets the latency bound, up to twenty. The latency
// bound holds for the best batch and the CPU bound for the median
// batch, so a noisy stretch (a GC cycle, the scavenger returning an
// earlier test's heap, other packages' tests on the same CPUs) decides
// neither. A spinning reader keeps a CPU busy in every batch.
func TestLinkWaitsWithoutSpinning(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows every goroutine")
	}
	const minBatches, maxBatches, rounds = 5, 20, 100
	limit := 2*Fast100.Latency + 25*time.Microsecond
	a, b := Pipe(Fast100)
	defer a.Close()
	defer b.Close()
	go echo(b, 1)
	msg, buf := []byte{'x'}, make([]byte, 1)
	rtts := make([]time.Duration, rounds)
	var p50s []time.Duration
	var ratios []float64
	debug.FreeOSMemory()
	for len(p50s) < minBatches || len(p50s) < maxBatches && slices.Min(p50s) > limit {
		cpu0, wall0 := cpuTime(t), time.Now()
		for j := range rtts {
			start := time.Now()
			if _, err := a.Write(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(a, buf); err != nil {
				t.Fatal(err)
			}
			rtts[j] = time.Since(start)
		}
		ratios = append(ratios, (cpuTime(t)-cpu0).Seconds()/time.Since(wall0).Seconds())
		p50s = append(p50s, median(rtts))
	}
	t.Logf("round trip p50 per batch %v; CPUs busy per batch %.2f", p50s, ratios)
	if best := slices.Min(p50s); best > limit {
		t.Errorf("median round trip over Fast100 at best %v (batches %v), want at most %v", best, p50s, limit)
	}
	slices.Sort(ratios)
	if ratio := ratios[len(ratios)/2]; ratio > 0.5 {
		t.Errorf("round trips kept %.2f CPUs busy in the median batch (batches %.2f), want at most 0.5", ratio, ratios)
	}
}

// TestLinkLongWaitEndsOnTime: a wait longer than spinThreshold parks
// on the direction's timer, which can fire a millisecond late, so the
// timer is armed for spinThreshold before the data is due and the
// precise sleep ends the wait. A 5 ms one-way delivery lands within
// 100 µs of its due time at the median of a batch of 11. Batches run
// until one does, up to twenty, so a stretch of other work on the host
// does not decide it; a wait that ends on the timer is about 200 µs
// late in every batch.
func TestLinkLongWaitEndsOnTime(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows every goroutine")
	}
	const maxBatches, samples, limit = 20, 11, 100 * time.Microsecond
	prof := LinkProfile{Latency: 5 * time.Millisecond}
	a, b := Pipe(prof)
	defer a.Close()
	defer b.Close()
	late := make([]time.Duration, samples)
	var p50s []time.Duration
	buf := make([]byte, 1)
	for len(p50s) == 0 || len(p50s) < maxBatches && slices.Min(p50s) > limit {
		for j := range late {
			sent := time.Now()
			if _, err := a.Write(buf); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(b, buf); err != nil {
				t.Fatal(err)
			}
			late[j] = time.Since(sent) - prof.Latency
		}
		p50s = append(p50s, median(late))
	}
	t.Logf("lateness p50 per batch %v", p50s)
	if best := slices.Min(p50s); best > limit {
		t.Errorf("a 5 ms delivery is %v late at the median of the best batch (batches %v), want at most %v", best, p50s, limit)
	}
}

// TestSleepingReaderSeesResetCloseDeadline: a reader whose chunk is due
// within spinThreshold sleeps without the queue's lock, and notices a
// reset, a close or an earlier deadline only when it wakes. Each must
// still surface within 5 ms with its usual outcome: ErrReset, the
// chunk and then EOF, or os.ErrDeadlineExceeded.
func TestSleepingReaderSeesResetCloseDeadline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		event func(b *Conn)
		want  error
		data  string
	}{
		{"Reset", func(b *Conn) { b.Reset() }, ErrReset, ""},
		{"Close", func(b *Conn) { b.Close() }, io.EOF, "x"},
		{"Deadline", func(b *Conn) { b.SetReadDeadline(time.Now()) }, os.ErrDeadlineExceeded, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A loaded host can hold the event back until the chunk is
			// due, when there is no sleep left to test: try again.
			for try := 0; try < 10; try++ {
				data, after, early, err := sleepThenEvent(tc.event)
				if !early {
					continue
				}
				if !errors.Is(err, tc.want) || data != tc.data {
					t.Errorf("read %q then %v, want %q then %v", data, err, tc.data, tc.want)
				}
				if after > 5*time.Millisecond {
					t.Errorf("%v surfaced %v after the %s", err, after, tc.name)
				}
				return
			}
			t.Fatal("the event never came before the chunk was due")
		})
	}
}

// sleepThenEvent sends one byte over a link with 1.5 ms of latency to a
// reader that reads until an error, and applies event to the reader's
// end 300 µs later. It returns what the reader read, how long after the
// event it stopped, whether the event came before the byte was due,
// and the error the reader stopped on.
func sleepThenEvent(event func(b *Conn)) (data string, after time.Duration, early bool, err error) {
	const due = 1500 * time.Microsecond
	a, b := Pipe(LinkProfile{Latency: due})
	defer a.Close()
	defer b.Close()
	sent := time.Now()
	a.Write([]byte("x"))
	type result struct {
		data string
		err  error
		at   time.Time
	}
	done := make(chan result, 1)
	go func() {
		var got []byte
		buf := make([]byte, 1)
		for {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				done <- result{string(got), err, time.Now()}
				return
			}
		}
	}()
	// Let the reader reach its sleep; time.Sleep could overshoot the
	// byte's due time.
	for time.Since(sent) < 300*time.Microsecond {
		runtime.Gosched()
	}
	at := time.Now()
	event(b)
	early = at.Sub(sent) < due
	select {
	case r := <-done:
		return r.data, r.at.Sub(at), early, r.err
	case <-time.After(2 * time.Second):
		return "", 2 * time.Second, early, errors.New("reader still blocked 2 s after the event")
	}
}

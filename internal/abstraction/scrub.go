package abstraction

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"tss/internal/vfs"
)

// Scrub is the mirror's self-healing audit: walk the tree, digest every
// file on every replica, and repair the copies that diverge from the
// majority. Verify-on-read (integrity.go) protects each individual
// read; scrub restores the redundancy so that protection keeps having
// healthy siblings to lean on — the GEMS-style continuous audit that
// mirror.go's header defers to. After a successful repairing scrub, an
// immediately following scrub reports zero divergent files.

// ScrubOptions configures one scrub pass. The zero value scans
// everything under "/" with the mirror's digest algorithm, four
// concurrent files, and no repair.
type ScrubOptions struct {
	// Root is the directory to scan (default "/").
	Root string
	// Algo is the digest algorithm (default the mirror's ChecksumAlgo).
	Algo string
	// Parallel bounds how many files are digested concurrently
	// (default 4).
	Parallel int
	// Repair rewrites divergent replicas from the winning copy; false
	// reports only.
	Repair bool
}

// ScrubFile describes one divergent file.
type ScrubFile struct {
	Path string
	// Digests holds the per-replica digest, indexed by replica; "" for
	// replicas that could not answer (missing file, transport error).
	Digests []string
	// Winner is the replica whose copy was judged authoritative, or -1
	// when no copy could be judged.
	Winner int
	// Repaired lists the replicas rewritten from the winner.
	Repaired []int
	// Err records why judgment or repair failed, if it did.
	Err string
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	FilesScanned int
	Divergent    int
	Repaired     int // replica copies rewritten
	// Files lists the divergent files, in path order.
	Files []ScrubFile
	// Errors lists paths that could not be fully examined.
	Errors []string
}

// Scrub audits every file under opts.Root across all replicas and,
// with opts.Repair, rewrites divergent copies from the majority
// replica (ties broken by newest modification time). It deliberately
// includes demoted replicas: a replica demoted for serving corrupt
// bytes (integrity.go) is precisely the one scrub exists to repair, so
// every replica is asked and the ones that cannot answer simply show
// up with missing digests.
func (m *MirrorFS) Scrub(ctx context.Context, opts ScrubOptions) (*ScrubReport, error) {
	if opts.Root == "" {
		opts.Root = "/"
	}
	if opts.Algo == "" {
		opts.Algo = m.sumAlgo
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 4
	}
	ready := make([]int, len(m.replicas))
	for i := range ready {
		ready[i] = i
	}
	files, dirs, walkErrs := m.scrubWalk(ctx, opts.Root, ready)
	if opts.Repair {
		m.scrubMkdirs(dirs, ready)
	}

	rep := &ScrubReport{Errors: walkErrs}
	var mu sync.Mutex
	sem := make(chan struct{}, opts.Parallel)
	var wg sync.WaitGroup
	for _, path := range files {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(path string) {
			defer wg.Done()
			defer func() { <-sem }()
			sf, scanned := m.scrubFile(path, ready, opts)
			mu.Lock()
			defer mu.Unlock()
			if scanned {
				rep.FilesScanned++
				m.Stats.ScrubFiles.Inc()
			}
			if sf == nil {
				return
			}
			if sf.Err != "" && sf.Winner < 0 {
				rep.Errors = append(rep.Errors, path+": "+sf.Err)
				return
			}
			rep.Divergent++
			m.Stats.ScrubDivergent.Inc()
			rep.Repaired += len(sf.Repaired)
			m.Stats.ScrubRepaired.Add(int64(len(sf.Repaired)))
			rep.Files = append(rep.Files, *sf)
		}(path)
	}
	wg.Wait()
	sort.Slice(rep.Files, func(i, j int) bool { return rep.Files[i].Path < rep.Files[j].Path })
	sort.Strings(rep.Errors)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// scrubWalk lists the union of the replica trees under root: a file
// missing from one replica must still be examined (its absence is the
// divergence). Returned file and directory paths are sorted.
func (m *MirrorFS) scrubWalk(ctx context.Context, root string, ready []int) (files, dirs []string, errs []string) {
	seenFile := map[string]bool{}
	seenDir := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		if ctx.Err() != nil {
			return
		}
		type ent struct {
			name  string
			isDir bool
		}
		union := map[string]ent{}
		answered := false
		for _, i := range ready {
			ents, err := m.replicas[i].ReadDir(dir)
			m.record(i, err)
			if err != nil {
				// ENOENT just means this replica lacks the directory —
				// its files will show up as missing digests. Anything
				// else is worth reporting.
				if vfs.AsErrno(err) != vfs.ENOENT {
					errs = append(errs, fmt.Sprintf("%s: replica %d: %v", dir, i, err))
				}
				continue
			}
			answered = true
			for _, e := range ents {
				union[e.Name] = ent{name: e.Name, isDir: e.IsDir}
			}
		}
		if !answered {
			return
		}
		names := make([]string, 0, len(union))
		for name := range union {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p := dir + "/" + name
			if dir == "/" {
				p = "/" + name
			}
			if union[name].isDir {
				if !seenDir[p] {
					seenDir[p] = true
					dirs = append(dirs, p)
					walk(p)
				}
				continue
			}
			seenFile[p] = true
		}
	}
	walk(root)
	files = make([]string, 0, len(seenFile))
	for p := range seenFile {
		files = append(files, p)
	}
	sort.Strings(files)
	sort.Strings(dirs)
	return files, dirs, errs
}

// scrubMkdirs ensures every directory of the union tree exists on
// every replica, so repairs of files inside them can land.
func (m *MirrorFS) scrubMkdirs(dirs []string, ready []int) {
	for _, dir := range dirs {
		for _, i := range ready {
			err := m.replicas[i].Mkdir(dir, 0o755)
			if err != nil && vfs.AsErrno(err) == vfs.EEXIST {
				err = nil
			}
			m.record(i, err)
		}
	}
}

// scrubFile digests one file on every replica, judges the winner, and
// optionally repairs the losers. It returns nil when all replicas
// agree; scanned is false when the context made examination moot.
func (m *MirrorFS) scrubFile(path string, ready []int, opts ScrubOptions) (sf *ScrubFile, scanned bool) {
	digests := make([]string, len(m.replicas))
	holders := 0
	for _, i := range ready {
		sum, err := vfs.ChecksumFile(m.replicas[i], path, opts.Algo)
		m.record(i, err)
		if err != nil {
			continue
		}
		digests[i] = sum
		holders++
	}
	if holders == 0 {
		return &ScrubFile{Path: path, Digests: digests, Winner: -1, Err: "no replica could digest the file"}, true
	}
	agree := true
	var first string
	for _, i := range ready {
		if first == "" {
			first = digests[i]
		} else if digests[i] != first {
			agree = false
		}
	}
	if agree && holders == len(ready) {
		return nil, true
	}
	sf = &ScrubFile{Path: path, Digests: append([]string(nil), digests...)}
	sf.Winner = m.judgeWinner(path, digests, ready)
	if sf.Winner < 0 {
		sf.Err = "no copy could be judged authoritative"
		return sf, true
	}
	if !opts.Repair {
		return sf, true
	}
	if err := m.repairFile(path, digests, ready, opts.Algo, sf); err != nil {
		sf.Err = err.Error()
	}
	return sf, true
}

// judgeWinner picks the authoritative replica for a divergent file:
// the digest held by the most replicas wins; a tie goes to the copy
// with the newest modification time (the survivor of the most recent
// write). A tie that neither votes nor mtime can break — two equally
// supported, equally old copies, the signature of bit rot with a
// replica absent — is refused (-1): picking blind would repair the
// wrong side half the time and turn divergence into loss, so scrub
// fails stop and waits for the missing replica's vote.
func (m *MirrorFS) judgeWinner(path string, digests []string, ready []int) int {
	votes := map[string]int{}
	for _, i := range ready {
		if digests[i] != "" {
			votes[digests[i]]++
		}
	}
	best := -1
	var bestMTime int64
	ambiguous := false
	for _, i := range ready {
		d := digests[i]
		if d == "" {
			continue
		}
		if best >= 0 {
			if votes[d] < votes[digests[best]] {
				continue
			}
			if votes[d] == votes[digests[best]] {
				if d == digests[best] {
					continue // same copy, keep the lower index
				}
				fi, err := m.replicas[i].Stat(path)
				m.record(i, err)
				if err != nil || fi.MTime < bestMTime {
					continue
				}
				if fi.MTime == bestMTime {
					ambiguous = true
					continue
				}
			}
		}
		fi, err := m.replicas[i].Stat(path)
		m.record(i, err)
		if err != nil {
			continue
		}
		best, bestMTime = i, fi.MTime
		ambiguous = false
	}
	if ambiguous {
		return -1
	}
	return best
}

// repairFile rewrites every replica that disagrees with the winner,
// from the winner's bytes — re-digested after the read, so a copy that
// rots between judgment and repair is never propagated.
func (m *MirrorFS) repairFile(path string, digests []string, ready []int, algo string, sf *ScrubFile) error {
	w := sf.Winner
	fi, err := m.replicas[w].Stat(path)
	m.record(w, err)
	if err != nil {
		return fmt.Errorf("stat winner replica %d: %w", w, err)
	}
	var buf bytes.Buffer
	if _, err := readFileTo(m.replicas[w], path, &buf); err != nil {
		m.record(w, err)
		return fmt.Errorf("read winner replica %d: %w", w, err)
	}
	got, err := digestOf(buf.Bytes(), algo)
	if err != nil {
		return err
	}
	if got != digests[w] {
		return vfs.ChecksumMismatch(path, algo, digests[w], got)
	}
	var firstErr error
	for _, i := range ready {
		if i == w || digests[i] == got {
			continue
		}
		// The copy engine stores with an end-to-end digest: a repair that
		// itself corrupts in flight is rejected, never installed.
		err := vfs.PutBytes(context.Background(), vfs.Loc{FS: m.replicas[i], Path: path},
			fi.Mode, buf.Bytes(), vfs.CopyOptions{Verify: true})
		m.record(i, err)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("repair replica %d: %w", i, err)
			}
			continue
		}
		// Repair rehabilitates: the replica now holds known-good bytes,
		// so its strike history no longer describes what it serves.
		m.strikes[i].Store(0)
		sf.Repaired = append(sf.Repaired, i)
	}
	return firstErr
}

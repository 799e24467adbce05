package abstraction

import (
	"fmt"

	"tss/internal/pathutil"
	"tss/internal/vfs"
)

// Fsck implements the recovery story of §5: because each abstraction
// stores its data in a distinguishable directory on every server, the
// filesystem can be checked and repaired — dangling stubs (stub entry
// whose data file is gone, the benign crash residue) detected and
// optionally removed, and orphaned data files (data without a stub,
// which only appears after external interference) detected and
// optionally reclaimed.

// FsckReport summarizes one check of a distributed filesystem.
type FsckReport struct {
	FilesChecked  int
	DirsChecked   int
	Stripes       int      // stripe descriptors recognized and validated
	DanglingStubs []string // logical paths whose data file is missing
	Unreachable   []string // logical paths whose server did not answer
	OrphanedData  []string // "server:path" data files with no stub
	BadStubs      []string // unparseable stub files
	// StripeDamaged lists stripe files whose members are missing or
	// whose local lengths disagree with the reconstructed logical size
	// ("path: reason").
	StripeDamaged []string
	// StripeDigests records the per-member digest of every stripe file,
	// in stripe order ("" for members that could not be digested).
	// Members hold different slices of the data, so the digests are not
	// compared against each other — they give an operator a fingerprint
	// to compare across fsck runs or against a known-good record.
	StripeDigests map[string][]string
}

// FsckOptions controls repair behaviour.
type FsckOptions struct {
	// RemoveDangling unlinks stub entries whose data is gone.
	RemoveDangling bool
	// RemoveOrphans unlinks data files no stub references. Only safe
	// when no other client is concurrently creating files (creation
	// writes the stub first, so a racing create looks dangling, not
	// orphaned — but a to-be-written data file could look orphaned).
	// Nothing is unlinked when a stub or stripe member names a server
	// outside the set: then the check cannot tell which data files are
	// referenced, and the orphans are only reported.
	RemoveOrphans bool
}

// Fsck walks the metadata tree and every server's storage directory,
// cross-checking stubs against data files.
func (d *Dist) Fsck(opts FsckOptions) (*FsckReport, error) {
	report := &FsckReport{StripeDigests: make(map[string][]string)}
	referenced := make(map[string]bool) // "server\x00path" -> true
	unknown := false                    // a stub names a server outside the set

	var walk func(dir string) error
	walk = func(dir string) error {
		report.DirsChecked++
		ents, err := d.meta.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("fsck: listing %s: %w", dir, err)
		}
		for _, e := range ents {
			p := pathutil.Join(dir, e.Name)
			if e.IsDir {
				if err := walk(p); err != nil {
					return err
				}
				continue
			}
			report.FilesChecked++
			stub, err := readStub(d.meta, p)
			if err != nil {
				// Not a stub — but a metadata tree can also hold stripe
				// descriptors (stripe.go); recognize and validate those
				// before declaring the file damaged.
				//lint:ignore copyapi stripe descriptors are tiny one-round-trip metadata, not transfers
				if data, rerr := vfs.GetWholeFile(d.meta, p); rerr == nil {
					if desc, ok := parseStripeDesc(data); ok {
						if d.fsckStripe(p, desc, report, referenced) {
							unknown = true
						}
						continue
					}
				}
				// An empty or partial stub is the residue of a crash
				// between the exclusive create and the body write; no
				// data file can exist for it (data is created only
				// after the stub write completes), so removal is as
				// safe as removing a dangling stub.
				report.BadStubs = append(report.BadStubs, p)
				if opts.RemoveDangling {
					if err := d.meta.Unlink(p); err != nil {
						return fmt.Errorf("fsck: removing bad stub %s: %w", p, err)
					}
				}
				continue
			}
			referenced[stub.Server+"\x00"+stub.Path] = true
			srv := d.server(stub.Server)
			if srv == nil {
				unknown = true
				report.Unreachable = append(report.Unreachable, p)
				continue
			}
			_, err = srv.FS.Stat(stub.Path)
			switch vfs.AsErrno(err) {
			case vfs.EOK:
			case vfs.ENOENT:
				report.DanglingStubs = append(report.DanglingStubs, p)
				if opts.RemoveDangling {
					if err := d.meta.Unlink(p); err != nil {
						return fmt.Errorf("fsck: removing dangling %s: %w", p, err)
					}
				}
			default:
				report.Unreachable = append(report.Unreachable, p)
			}
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return report, err
	}

	// Scan every server's storage directory for unreferenced data.
	for i := range d.servers {
		srv := &d.servers[i]
		ents, err := srv.FS.ReadDir(srv.Dir)
		if err != nil {
			continue // server down: nothing to reclaim now
		}
		for _, e := range ents {
			if e.IsDir {
				continue
			}
			dataPath := pathutil.Join(srv.Dir, e.Name)
			if referenced[srv.Name+"\x00"+dataPath] {
				continue
			}
			report.OrphanedData = append(report.OrphanedData, srv.Name+":"+dataPath)
			if opts.RemoveOrphans && !unknown {
				if err := srv.FS.Unlink(dataPath); err != nil && vfs.AsErrno(err) != vfs.ENOENT {
					return report, fmt.Errorf("fsck: reclaiming %s on %s: %w", dataPath, srv.Name, err)
				}
			}
		}
	}
	return report, nil
}

// fsckStripe validates one stripe descriptor: every member data file
// must exist, the member lengths must agree with the logical size
// reconstructed from them, and each member is digested so the report
// carries a per-member fingerprint of the data. It reports whether a
// member names a server outside the set.
func (d *Dist) fsckStripe(p string, desc *stripeDesc, report *FsckReport, referenced map[string]bool) (unknown bool) {
	report.Stripes++
	w := int64(len(desc.Servers))
	sizes := make([]int64, len(desc.Servers))
	digests := make([]string, len(desc.Servers))
	var damage string
	unreach := false
	var logical int64
	for k, name := range desc.Servers {
		srv := d.server(name)
		if srv == nil {
			unknown = true
			if damage == "" {
				damage = fmt.Sprintf("member %d: unknown server %q", k, name)
			}
			continue
		}
		dataPath := pathutil.Join(srv.Dir, desc.Base)
		referenced[srv.Name+"\x00"+dataPath] = true
		fi, err := srv.FS.Stat(dataPath)
		switch vfs.AsErrno(err) {
		case vfs.EOK:
		case vfs.ENOENT:
			if damage == "" {
				damage = fmt.Sprintf("member %d: data file missing on %s", k, name)
			}
			continue
		default:
			unreach = true
			continue
		}
		sizes[k] = fi.Size
		if end := logicalExtent(fi.Size, int64(k), w, desc.StripeSize); end > logical {
			logical = end
		}
		if sum, err := vfs.ChecksumFile(srv.FS, dataPath, vfs.DefaultAlgo); err == nil {
			digests[k] = sum
		}
	}
	if damage == "" && !unreach {
		for k := range desc.Servers {
			if want := localLength(logical, int64(k), w, desc.StripeSize); sizes[k] != want {
				damage = fmt.Sprintf("member %d: local length %d, want %d for logical size %d",
					k, sizes[k], want, logical)
				break
			}
		}
	}
	report.StripeDigests[p] = digests
	if unreach && damage == "" {
		report.Unreachable = append(report.Unreachable, p)
	}
	if damage != "" {
		report.StripeDamaged = append(report.StripeDamaged, p+": "+damage)
	}
	return unknown
}

// Clean reports whether the check found nothing wrong.
func (r *FsckReport) Clean() bool {
	return len(r.DanglingStubs) == 0 && len(r.OrphanedData) == 0 &&
		len(r.BadStubs) == 0 && len(r.Unreachable) == 0 &&
		len(r.StripeDamaged) == 0
}

// String renders a short summary.
func (r *FsckReport) String() string {
	return fmt.Sprintf("fsck: %d files, %d dirs, %d stripes; dangling=%d orphaned=%d bad=%d unreachable=%d stripe_damaged=%d",
		r.FilesChecked, r.DirsChecked, r.Stripes, len(r.DanglingStubs), len(r.OrphanedData),
		len(r.BadStubs), len(r.Unreachable), len(r.StripeDamaged))
}

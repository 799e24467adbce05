// Gems is the distributed shared database CLI (§5's DSDB, §9's GEMS):
// store files with searchable attributes across Chirp servers, query
// them, verify replica integrity, and replicate to a storage budget.
// The index is durable — a journal on a local directory — so the
// database survives restarts, and "gems recover" rebuilds it from the
// storage pool if it is lost entirely.
//
//	gems -index ~/.gems -data n0=host0:9094/gems -data n1=host1:9094/gems \
//	     put sim042 protein=villin temp=300 < trajectory.bin
//	gems ... query protein=villin
//	gems ... get sim042 > trajectory.bin
//	gems ... audit
//	gems ... replicate 40000000000
//	gems ... recover
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tss/internal/chirp"
	"tss/internal/gems"
	"tss/internal/stackspec"
	"tss/internal/vfs"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gems -index DIR [-data name=host:port/dir]... <command> [args]
commands:
  put ID [k=v]...        store stdin under ID with attributes
  get ID                 write the record's data to stdout
  query [k=v]...         list matching records
  list                   list everything
  rm ID                  delete a record and all replicas
  audit                  verify location and integrity of every replica
  replicate BUDGET       replicate records up to BUDGET total bytes
  recover                rebuild the index by rescanning the servers`)
	os.Exit(2)
}

func main() {
	flag.Usage = usage
	indexDir := flag.String("index", "", "")
	var dataSpecs []stackspec.Server
	flag.Func("data", "", func(s string) error {
		srv, err := stackspec.ParseServer(s, "/gems")
		dataSpecs = append(dataSpecs, srv)
		return err
	})
	flag.Parse()
	args := flag.Args()
	if *indexDir == "" || len(dataSpecs) == 0 || len(args) == 0 {
		usage()
	}

	if err := os.MkdirAll(*indexDir, 0o755); err != nil {
		fatal(err)
	}
	indexFS, err := vfs.NewLocalFS(*indexDir)
	if err != nil {
		fatal(err)
	}
	idx, err := gems.OpenJournalIndex(indexFS, "/index.journal")
	if err != nil {
		fatal(err)
	}
	defer idx.Close()

	b := &stackspec.Builder{Dial: stackspec.TCP(chirp.ClientConfig{Timeout: 30 * time.Second})}
	defer b.Close()
	servers, err := b.DataServers(dataSpecs)
	if err != nil {
		fatal(err)
	}
	db, err := gems.NewDSDB(idx, servers)
	if err != nil {
		fatal(err)
	}

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "put":
		if len(rest) < 1 {
			usage()
		}
		attrs, err := parseAttrs(rest[1:])
		if err != nil {
			fatal(err)
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		rec, err := db.Put(rest[0], attrs, data)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stored %s: %d bytes on %s\n", rec.ID, rec.Size, rec.Replicas[0].Server)

	case "get":
		if len(rest) != 1 {
			usage()
		}
		rec, found, err := db.Index().Get(rest[0])
		if err != nil {
			fatal(err)
		}
		if !found {
			fatal(fmt.Errorf("no record %q", rest[0]))
		}
		data, err := db.Read(rec)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)

	case "query", "list":
		var attrs map[string]string
		if cmd == "query" {
			var err error
			if attrs, err = parseAttrs(rest); err != nil {
				fatal(err)
			}
		}
		recs, err := db.Query(attrs)
		if err != nil {
			fatal(err)
		}
		for _, r := range recs {
			var kv []string
			for k, v := range r.Attrs {
				kv = append(kv, k+"="+v)
			}
			fmt.Printf("%-24s %10d bytes  %d replicas  %s\n",
				r.ID, r.Size, len(r.Replicas), strings.Join(kv, " "))
		}

	case "rm":
		if len(rest) != 1 {
			usage()
		}
		if err := db.Delete(rest[0]); err != nil {
			fatal(err)
		}

	case "audit":
		rep, err := (&gems.Auditor{DB: db}).Audit()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("audited %d records, %d replicas: %d missing, %d corrupt, %d unreachable\n",
			rep.Records, rep.ReplicasChecked, rep.Missing, rep.Corrupt, rep.Unreachable)

	case "replicate":
		if len(rest) != 1 {
			usage()
		}
		var budget int64
		if _, err := fmt.Sscanf(rest[0], "%d", &budget); err != nil || budget <= 0 {
			fatal(fmt.Errorf("bad budget %q", rest[0]))
		}
		steps, err := (&gems.Replicator{DB: db, BudgetBytes: budget}).Run()
		if err != nil {
			fatal(err)
		}
		stored, _ := db.StoredBytes()
		fmt.Printf("made %d copies; %d of %d bytes used\n", steps, stored, budget)

	case "recover":
		recovered, err := gems.RecoverIndex(servers)
		if err != nil {
			fatal(err)
		}
		recs, err := recovered.List()
		if err != nil {
			fatal(err)
		}
		// Merge into the journal (attributes of re-inserted records are
		// lost; existing entries win).
		added := 0
		for _, r := range recs {
			if _, exists, _ := idx.Get(r.ID); exists {
				continue
			}
			if err := idx.Insert(r); err != nil {
				fatal(err)
			}
			added++
		}
		fmt.Printf("recovered %d records from %d servers (%d new)\n", len(recs), len(servers), added)

	default:
		usage()
	}
}

func parseAttrs(kvs []string) (map[string]string, error) {
	attrs := map[string]string{}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad attribute %q: want k=v", kv)
		}
		attrs[k] = v
	}
	return attrs, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gems: %v\n", err)
	os.Exit(1)
}

// Bioinformatics reproduces the §9 scenario: a research group tracks
// molecular-simulation outputs in GEMS — a distributed shared database
// over many small file servers — with automatic replication to a
// storage budget, and auditor-driven repair after disks are lost.
//
//	go run ./examples/bioinformatics
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"tss"
)

func main() {
	// Twelve little file servers: workstations, classroom machines, a
	// corner of a cluster — the paper's prototype pooled 120 of these.
	nw := tss.NewSimNetwork()
	var servers []tss.DataServer
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("ws%02d.bio.example", i)
		dir, err := os.MkdirTemp("", "tss-bio-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		stop, err := tss.StartFileServerOn(nw, name, dir, tss.FileServerOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		client, err := tss.DialSim(nw, name, name) // the owner itself
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		servers = append(servers, tss.DataServer{Name: name, FS: client, Dir: "/gems"})
	}

	db, err := tss.NewDSDB(servers)
	if err != nil {
		log.Fatal(err)
	}

	// A PROTOMOL campaign produces trajectories; each is entered into
	// GEMS with searchable attributes.
	for run := 0; run < 6; run++ {
		temp := fmt.Sprintf("%d", 300+10*run)
		payload := bytes.Repeat([]byte{byte(run + 1)}, 32<<10)
		id := fmt.Sprintf("villin-T%s", temp)
		if _, err := db.Put(id, map[string]string{
			"protein": "villin",
			"temp":    temp,
			"tool":    "protomol",
		}, payload); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("entered 6 trajectories into GEMS")

	// Preserve: replicate up to a 600 KB budget (≥3 copies each).
	repl := &tss.Replicator{DB: db, BudgetBytes: 600 << 10}
	steps, err := repl.Run()
	if err != nil {
		log.Fatal(err)
	}
	stored, _ := db.StoredBytes()
	fmt.Printf("replicator made %d copies; %d KB stored across the pool\n", steps, stored>>10)

	// Query like a scientist: all villin runs at 320 K.
	recs, err := db.Query(map[string]string{"protein": "villin", "temp": "320"})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("query hit: %s, %d bytes, %d replicas\n", r.ID, r.Size, len(r.Replicas))
	}

	// A workstation owner reclaims their disk: every GEMS file there
	// is deleted. Independence (§3) says they may — and preservation
	// must cope.
	victim := servers[0]
	ents, _ := victim.FS.ReadDir("/gems")
	for _, e := range ents {
		victim.FS.Unlink("/gems/" + e.Name)
	}
	fmt.Printf("owner of %s evicted all GEMS data (%d files)\n", victim.Name, len(ents))

	auditor := &tss.Auditor{DB: db}
	report, err := auditor.Audit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auditor: %d replicas checked, %d missing\n", report.ReplicasChecked, report.Missing)

	steps, err = repl.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replicator repaired with %d new copies\n", steps)

	// Everything still readable, checksums verified.
	all, _ := db.Index().List()
	for _, r := range all {
		if _, err := db.Read(r); err != nil {
			log.Fatalf("record %s lost: %v", r.ID, err)
		}
	}
	fmt.Println("all trajectories intact and checksum-verified")
}

// Command mmctl manages a model store: list saved models, inspect lineage,
// delete models, collect garbage, and recover a model's parameters to a
// file — the operational surface of the paper's central server (use case
// U4: "the server has to monitor every model that exists and has to be able
// to losslessly recover it when requested").
//
// Usage:
//
//	mmctl -store /var/mmlib list
//	mmctl -store /var/mmlib lineage <model-id>
//	mmctl -store /var/mmlib children <model-id>
//	mmctl -store /var/mmlib stats
//	mmctl -store /var/mmlib [-force] delete <model-id>
//	mmctl -store /var/mmlib gc
//	mmctl -store /var/mmlib [-dry-run] fsck
//	mmctl -store /var/mmlib -out params.mmsd recover <model-id>
//
// With -db addr the metadata comes from a running mmserver instead of the
// local store directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/mmlib"
)

func main() {
	var (
		storeDir = flag.String("store", "", "store directory (contains meta/ and files/)")
		dbAddr   = flag.String("db", "", "metadata server address (overrides -store/meta)")
		out      = flag.String("out", "", "output file for 'recover'")
		force    = flag.Bool("force", false, "force deletion even when other models depend on the target")
		dryRun   = flag.Bool("dry-run", false, "for 'fsck': report what would be reclaimed without deleting")
	)
	applyLog := obs.LogFlags(flag.CommandLine)
	flag.Parse()
	applyLog()
	args := flag.Args()
	if *storeDir == "" || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mmctl -store DIR [flags] {list|lineage|children|stats|delete|gc|fsck|recover} [id]")
		os.Exit(2)
	}

	stores, err := openStores(*storeDir, *dbAddr)
	if err != nil {
		fatal(err)
	}
	defer stores.Meta.Close()
	cat := catalog.New(stores)

	switch cmd := args[0]; cmd {
	case "list":
		entries, err := cat.List()
		if err != nil {
			fatal(err)
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ID\tAPPROACH\tKIND\tBASE\tSTORAGE")
		for _, e := range entries {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d B\n", e.ID, e.Approach, e.Kind, short(e.BaseID), e.StorageBytes)
		}
		if err := tw.Flush(); err != nil {
			fatal(err)
		}

	case "lineage":
		id := need(args, "lineage")
		chain, err := cat.Chain(id)
		if err != nil {
			fatal(err)
		}
		for i, e := range chain {
			indent := ""
			for j := 0; j < i; j++ {
				indent += "  "
			}
			fmt.Printf("%s%s (%s, %s, %d B)\n", indent, e.ID, e.Approach, e.Kind, e.StorageBytes)
		}

	case "children":
		id := need(args, "children")
		kids, err := cat.Children(id)
		if err != nil {
			fatal(err)
		}
		for _, k := range kids {
			fmt.Println(k)
		}

	case "stats":
		st, err := cat.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("models: %d (snapshots %d, updates %d, provenance %d)\n",
			st.Models, st.Snapshots, st.Updates, st.Provenance)
		fmt.Printf("storage: %d B; unreachable blobs: %d\n", st.TotalBytes, st.Unreachable)

	case "delete":
		id := need(args, "delete")
		if err := cat.Delete(id, *force); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted %s\n", id)

	case "gc":
		blobs, bytes, err := cat.CollectGarbage()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reclaimed %d blob(s), %d B\n", blobs, bytes)

	case "fsck":
		// Crash recovery: roll back saves whose write-ahead staging record
		// never committed (see core.RecoverOrphans). Must not run while
		// saves are in flight against the same store.
		sweep := core.RecoverOrphans
		if *dryRun {
			sweep = core.ScanOrphans
		}
		rep, err := sweep(stores)
		if err != nil {
			fatal(err)
		}
		if *dryRun {
			fmt.Printf("fsck (dry run): %s\n", rep)
		} else {
			fmt.Printf("fsck: %s\n", rep)
		}

	case "recover":
		id := need(args, "recover")
		if *out == "" {
			fatal(fmt.Errorf("recover needs -out FILE"))
		}
		// Any service recovers any stored model; only saves differ.
		rec, err := core.NewBaseline(stores).Recover(id, core.RecoverOptions{VerifyChecksums: true})
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		n, werr := nn.StateDictOf(rec.Net).WriteTo(f)
		cerr := f.Close()
		if werr != nil {
			fatal(werr)
		}
		if cerr != nil {
			fatal(cerr)
		}
		fmt.Printf("recovered %s (%s, %d classes): %d B of parameters -> %s (ttr %s)\n",
			id, rec.Spec.Arch, rec.Spec.NumClasses, n, *out, rec.Timing.Total())

	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

// openStores opens the store directory, with its metadata from the server
// at dbAddr instead of DIR/meta when one is given.
func openStores(dir, dbAddr string) (core.Stores, error) {
	if dbAddr != "" {
		return mmlib.ConnectStores(dbAddr, filepath.Join(dir, "files"))
	}
	return mmlib.OpenLocalStores(dir)
}

func need(args []string, cmd string) string {
	if len(args) < 2 {
		fatal(fmt.Errorf("%s needs a model id", cmd))
	}
	return args[1]
}

func short(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	if id == "" {
		return "-"
	}
	return id
}

func fatal(err error) {
	obs.Fatalf("mmctl: %v", err)
}

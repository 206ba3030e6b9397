package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
)

// listedPackage is the subset of `go list -json` output mmlint needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	DepOnly    bool
	Module     *listModule
	Error      *listError
}

type listModule struct {
	Path string
}

type listError struct {
	Err string
}

// Package is one type-checked package under analysis.
type Package struct {
	Fset       *token.FileSet
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	// fns holds the call-graph facts of the package's declared functions,
	// in declaration order (see buildProgram).
	fns []*funcFacts

	// Parsed //mmlint:ignore directives, cached because both the analyzers
	// and the call-graph fact builder consult them.
	dirOnce sync.Once
	dirs    []directive
	dirBad  []Finding
}

// loadPackages resolves the patterns with `go list -deps -json` and
// type-checks every package outside the standard library from source, in
// the order go list prints them (dependencies first). An import of such a
// package is satisfied by the package checked before it, so each of the
// module's types is one object wherever it is seen and types.Implements
// holds across packages. Only the standard library is imported from
// compiler export data, which a second `go list -export` builds for the
// standard-library packages alone, so the loader needs nothing beyond the
// standard library and the go tool. The matched (non-dependency) packages
// are returned for analysis, sorted by import path; the second result is
// their module path, which scopes the call graph's in-module reasoning.
func loadPackages(patterns []string) ([]*Package, string, error) {
	listed, err := goList(append([]string{"-deps", "-json"}, patterns...))
	if err != nil {
		return nil, "", err
	}
	var std []string
	for _, lp := range listed {
		if lp.Standard {
			std = append(std, lp.ImportPath)
		}
	}
	exports := map[string]string{}
	if len(std) > 0 {
		built, err := goList(append([]string{"-export", "-json=ImportPath,Export,Error"}, std...))
		if err != nil {
			return nil, "", err
		}
		for _, lp := range built {
			exports[lp.ImportPath] = lp.Export
		}
	}

	fset := token.NewFileSet()
	stdImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return stdImp.Import(path)
	})

	modulePath := ""
	var pkgs []*Package
	for i := range listed {
		lp := &listed[i]
		if lp.Standard {
			continue
		}
		p, err := checkPackage(fset, imp, lp)
		if err != nil {
			return nil, "", err
		}
		checked[lp.ImportPath] = p.Pkg
		if !lp.DepOnly {
			if modulePath == "" && lp.Module != nil {
				modulePath = lp.Module.Path
			}
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 {
		return nil, "", fmt.Errorf("no packages matched %v", patterns)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, modulePath, nil
}

// goList runs `go list -e` with args and decodes the packages it prints,
// failing on the first one that carries an error.
func goList(args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		listed = append(listed, lp)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkPackage parses and type-checks one listed package.
func checkPackage(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Fset:       fset,
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

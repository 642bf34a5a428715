package lint

// L9 — context discipline in the networked layers.
//
// PR 5 plumbed context.Context through the hardened client, server, and
// shard coordinator so deadlines and shutdown propagate end to end. A
// single context.Background() dropped into a helper silently severs
// that chain, and a bare time.Sleep blocks shutdown for its full
// duration. L9 pins the discipline in internal/client, internal/server,
// and internal/shard:
//
//   - context.Background() / context.TODO() are findings outside the
//     allowlisted roots (the documented entry points where "no context"
//     is the API's contract);
//   - time.Sleep is always a finding in these packages: use a timer and
//     a select that also honours ctx.Done() (client.sleep shows the
//     shape).

import (
	"go/ast"
)

type ruleL9 struct{}

func (ruleL9) Name() string { return "L9" }
func (ruleL9) Doc() string {
	return "no context.Background/TODO outside allowlisted roots and no bare time.Sleep in client/server/shard"
}

// l9Scope are the module-relative package prefixes under the rule.
var l9Scope = []string{"internal/client", "internal/server", "internal/shard", "internal/replica"}

// l9Allowlist names the functions allowed to mint a root context; keys
// are module-relative "pkg.func", values say why.
var l9Allowlist = map[string]string{
	// Client.Context documents "nil means context.Background()"; callIdem
	// is the single entry point where that default is applied, so every
	// other client path inherits a caller-provided context.
	"internal/client.callIdem": "documented nil-Context default applied at the client's single call entry point",
	// server.ShardBackend's methods take no context by contract (the
	// interface predates the router's in-process backends and is frozen);
	// *Server's two submits are where that contract meets the
	// context-taking core. The router itself calls the *Replay variants
	// under its request's context.
	"internal/server.SubmitRequest": "ShardBackend method: no context by contract",
	"internal/server.SubmitBatch":   "ShardBackend method: no context by contract",
	// The golden fixture demonstrating the allowlist escape hatch.
	"internal/lint/testdata/src/l9.rootBackground": "fixture: the named-allowlist escape hatch under test",
}

func (r ruleL9) Check(ctx *Context, pkg *Package) {
	if !ctx.inScope(pkg.Path, l9Scope) {
		return
	}
	rel := ctx.relPath(pkg.Path)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, allowed := l9Allowlist[rel+"."+fd.Name.Name]; allowed {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pkg.Info, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				switch {
				case callee.Pkg().Path() == "context" && (callee.Name() == "Background" || callee.Name() == "TODO"):
					ctx.Report("L9", call.Pos(),
						"context.%s severs the caller's cancellation chain: plumb the incoming ctx (or add an allowlisted root)", callee.Name())
				case callee.Pkg().Path() == "time" && callee.Name() == "Sleep":
					ctx.Report("L9", call.Pos(),
						"bare time.Sleep blocks shutdown: use a timer with a select that honours ctx.Done()")
				}
				return true
			})
		}
	}
}

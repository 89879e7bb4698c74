// Package ctxdemo is the ctxflow golden corpus: context.Background/TODO in
// non-main code is a finding, and a function that received a ctx must not
// call into a ctx-less chain that ends in a fabrication. Audited
// fabrications (//lint:ignore ctxflow) are sanctioned roots and keep their
// callers clean.
package ctxdemo

import "context"

// fabricate creates a root context outside main: finding one.
func fabricate() {
	work(context.Background()) // want "ctxflow: context.Background in non-main path"
}

// todo is the TODO variant.
func todo() {
	work(context.TODO()) // want "ctxflow: context.TODO in non-main path"
}

// helper takes no context but transitively reaches fabricate.
func helper() {
	fabricate()
}

// outer received a ctx; calling helper severs the cancellation chain.
func outer(ctx context.Context) {
	work(ctx)
	helper() // want "ctxflow: call to ctxdemo.helper drops the received ctx"
}

// deeper takes no context and reaches fabricate two calls down.
func deeper() {
	helper()
}

// outer2's severed chain is outer2 → deeper → helper → fabricate: the message
// names the function that fabricates, not the next hop.
func outer2(ctx context.Context) {
	work(ctx)
	deeper() // want "ctxflow: call to ctxdemo.deeper drops the received ctx: the callee fabricates a new root context (ctxdemo.fabricate at"
}

// threaded passes its ctx on: clean.
func threaded(ctx context.Context) {
	work(ctx)
}

func work(ctx context.Context) { _ = ctx }

// sanctioned is an audited detached root: the directive suppresses the
// fabrication finding and stops it from indicting callers.
func sanctioned() {
	//lint:ignore ctxflow corpus demo of an audited detached root
	work(context.Background())
}

// caller stays clean: sanctioned's fabrication is audited.
func caller(ctx context.Context) {
	work(ctx)
	sanctioned()
}

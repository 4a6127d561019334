package obs

import (
	"expvar"
	"sync"
)

// PublishExpvar registers the observability snapshot under the expvar
// key "j2kcell" (visible at /debug/vars when an HTTP server with the
// expvar handler is running — the -pprof/-metrics flags start one).
// The snapshot reads the process-wide aggregate registry: with many
// per-operation recorders, it is the only coherent whole-process view.
// Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("j2kcell", expvar.Func(func() any {
			g := Aggregate()
			ops := map[string]int64{}
			for c := OpClass(0); c < NumOpClasses; c++ {
				if n := g.Ops(c); n > 0 {
					ops[c.String()] = n
				}
			}
			return map[string]any{
				"counters":      g.Counters(),
				"operations":    ops,
				"ops_total":     g.OpsTotal(),
				"ops_active":    g.OpsActive(),
				"op_errors":     g.OpErrors(),
				"spans_dropped": g.Dropped(),
			}
		}))
	})
}

var expvarOnce sync.Once

package server

import (
	"net/http"
	"net/http/pprof"
)

// PprofHandler returns a mux exposing the net/http/pprof endpoints under
// /debug/pprof/. Profiling is opt-in and runs on its own listener (the
// -pprof-addr flag on pegserve) so the profile surface is
// never reachable through the serving port and can be firewalled
// separately; registration is explicit instead of the package's
// DefaultServeMux side effect, which would leak the endpoints onto any
// handler built from the default mux.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

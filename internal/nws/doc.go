// Package nws groups the Network Weather Service reproduction: the wire
// protocol and transports (proto; one compact binary codec, with
// series read only through batch messages), the directory (nameserver;
// its client owns the one registration-refresh lifecycle every
// long-lived role rides), series storage (memory; its Client stores
// and does raw per-server batch reads), measurement processes
// (sensor), the statistical forecasting core as a dependency-free leaf
// package (predict), the forecaster role serving predictions through
// the unified query plane (forecast), the token-ring measurement
// cliques (clique), the per-host agent (host), the deployable query
// gateway fronting the query plane for end users (gateway; reached
// only through gateway.Connect), and the cross-role discovery conformance
// suite pinning that memory fetch, forecaster resolution and gateway
// discovery all share query.Client semantics (discoverytest). The
// integration test in this directory runs the full stack over real
// loopback TCP sockets.
package nws

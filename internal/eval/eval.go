// Package eval regenerates every table and figure of the paper's
// evaluation (§6) on the simulated stack: E1 robustness (xfstests),
// E2/E3 generality (Table 1), E4 Phoronix relative performance
// (Figure 5), E5 fio throughput/IOPS (Figure 6) and E6 console latency
// (Figure 7), plus this repository's extensions: E7n virtio-net, E8
// fault sweep, E9 fleet storm, E10 record/replay and E11 migration.
// E7 (Figure 8) lives in internal/debloat.
//
// Every experiment reports its results as ledger rows, with the
// paper's value on the rows the paper reports; cmd/vmsh-bench prints
// them and writes them to the ledger that tools/benchdiff gates.
package eval

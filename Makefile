# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-smoke bench-ivm bench-agg bench-par examples doc clean outputs

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Seconds-long sanity pass: the two cheapest recursive experiments,
# planned_closure_256 (a QUERY's plan against the interpreter on the
# 256-chain), planned_closure_random_300 (the same on a strongly
# connected 300-node, 900-edge digraph) and planned_scene_256 (the §3.1
# scene Infront{ahead(Ontop)} over the 256-deep scene, its ahead/above
# automaton against the mutual fixpoint; all three exit 1 if the answers
# differ, or if the planned answer, a run, and the interpreter's tree
# do not frame to the same bytes with Wire.frame_rows) and the wire
# codec cells (a 90,000-row and a 3-row Rows frame, each framed from a
# tree and from a run of the same rows, built by the closure operator's
# own constructor, Relation.of_ranks_unchecked; exits 1 if the two
# frames differ by a byte or a decoded frame differs from its rows).
bench-smoke:
	dune exec bench/main.exe -- smoke

# Maintained views vs recompute-per-update on the same update stream.
bench-ivm:
	dune exec bench/main.exe -- ivm

# Aggregates: recursive MIN with per-group bounds vs the unaggregated
# naive recompute, and a maintained SUM view vs recompute-per-update.
bench-agg:
	dune exec bench/main.exe -- agg

# Parallel scaling curve of the constructor fixpoint, the one engine
# that shards its rounds (P = 1, 2, 4, recommended; degrees above the
# core count are dropped, so single-core runners report P=1).
bench-par:
	dune exec bench/main.exe -- parallel

# The served and durable paths (socket reads, view updates, durable
# commits) are benchmarked end to end by servebench:
#   python3 servebench/run.py --workload durable_commits

examples:
	dune exec examples/quickstart.exe
	dune exec examples/bill_of_materials.exe
	dune exec examples/genealogy.exe
	dune exec examples/corporate.exe
	dune exec examples/network_dashboard.exe
	dune exec bin/dbpl.exe -- run examples/cad_scene.dbpl
	dune exec bin/dbpl.exe -- run examples/same_generation.dbpl
	dune exec bin/dbpl.exe -- run examples/paper_walkthrough.dbpl
	dune exec bin/dbpl.exe -- run examples/closure_chain.dbpl

doc:
	dune build @doc

# Regenerate the archived experiment records.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean

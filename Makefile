# Developer entry points; `test` and `bench` run what CI runs.

.PHONY: install test test-fast bench perfbench examples verify all

EXAMPLES := $(sort $(wildcard examples/*.py))

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

test-fast:
	PYTHONPATH=src python -m pytest -x -q -m "not slow"

bench:
	PYTHONPATH=src python -m pytest -q benchmarks/

# One perfbench run: make perfbench W=dse_sweep SEED=11 TRACE=0
W ?= all
SEED ?= 1
TRACE ?= 0

perfbench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --trace $(TRACE)

verify:
	PYTHONPATH=src python -m repro.cli verify

examples:
	@for example in $(EXAMPLES); do \
		echo "== $$example"; \
		PYTHONPATH=src python $$example || exit 1; \
	done

all: test bench

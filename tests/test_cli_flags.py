"""Flag inventory of ``repro``'s command-line parser.

Pins, for every subcommand of ``build_parser()``, each option's strings,
``dest``, default, type name, choices, ``nargs`` and argparse action, so
a rewrite of the CLI wiring cannot drop, rename or re-default a flag
without this test failing.  Help text is deliberately not pinned.
"""

import argparse

from repro.cli import build_parser

EXECUTORS = ("graph-fused", "graph", "graph-conditional", "stream")
FAIL_ON = ("error", "warning", "info", "never")

#: subcommand -> dest -> (option strings, default, type name, choices,
#: nargs, action class without its ``_``/``Action`` affixes).
INVENTORY = {
    'stats': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'sources': ((), None, None, None, '*', 'Store'),
        'top': (('--top',), None, None, None, None, 'Store'),
        'design': (('--design',), None, None, None, None, 'Store'),
        'json': (('--json',), False, None, None, 0, 'StoreTrue'),
    },
    'lint': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'sources': ((), None, None, None, '*', 'Store'),
        'top': (('--top',), None, None, None, None, 'Store'),
        'design': (('--design',), [], None, None, None, 'Append'),
        'rules': (('--rules',), None, None, None, None, 'Store'),
        'json': (('--json',), False, None, None, 0, 'StoreTrue'),
        'fail_on': (('--fail-on',), 'error', None, FAIL_ON, None, 'Store'),
    },
    'verify': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'sources': ((), None, None, None, '*', 'Store'),
        'top': (('--top',), None, None, None, None, 'Store'),
        'design': (('--design',), [], None, None, None, 'Append'),
        'rules': (('--rules',), None, None, None, None, 'Store'),
        'target_weight': (('--target-weight',), None, 'float', None, None, 'Store'),
        'selftest': (('--selftest',), False, None, None, 0, 'StoreTrue'),
        'json': (('--json',), False, None, None, 0, 'StoreTrue'),
        'fail_on': (('--fail-on',), 'error', None, FAIL_ON, None, 'Store'),
    },
    'transpile': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'sources': ((), None, None, None, '+', 'Store'),
        'top': (('--top',), None, None, None, None, 'Store'),
        'output': (('--output', '-o'), 'rtlflow_kernels.py', None, None, None, 'Store'),
        'scalar_output': (('--scalar-output',), None, None, None, None, 'Store'),
        'target_weight': (('--target-weight',), 64.0, 'float', None, None, 'Store'),
    },
    'simulate': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'sources': ((), None, None, None, '+', 'Store'),
        'top': (('--top',), None, None, None, None, 'Store'),
        'batch': (('--batch', '-n'), 256, 'int', None, None, 'Store'),
        'cycles': (('--cycles', '-c'), 1000, 'int', None, None, 'Store'),
        'seed': (('--seed',), 0, 'int', None, None, 'Store'),
        'stimulus': (('--stimulus',), None, None, None, '*', 'Store'),
        'load': (('--load',), [], None, None, None, 'Append'),
        'executor': (('--executor',), 'graph-fused', None, EXECUTORS, None, 'Store'),
        'vcd': (('--vcd',), None, None, None, None, 'Store'),
        'vcd_lane': (('--vcd-lane',), 0, 'int', None, None, 'Store'),
        'trace_json': (('--trace-json',), None, None, None, None, 'Store'),
        'metrics_json': (('--metrics-json',), None, None, None, None, 'Store'),
    },
    'coverage': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'sources': ((), None, None, None, '+', 'Store'),
        'top': (('--top',), None, None, None, None, 'Store'),
        'batch': (('--batch', '-n'), 256, 'int', None, None, 'Store'),
        'cycles': (('--cycles', '-c'), 1000, 'int', None, None, 'Store'),
        'seed': (('--seed',), 0, 'int', None, None, 'Store'),
        'stimulus': (('--stimulus',), None, None, None, '*', 'Store'),
        'load': (('--load',), [], None, None, None, 'Append'),
        'trace_json': (('--trace-json',), None, None, None, None, 'Store'),
        'metrics_json': (('--metrics-json',), None, None, None, None, 'Store'),
        'ports_only': (('--ports-only',), False, None, None, 0, 'StoreTrue'),
        'all_uncovered': (('--all-uncovered',), False, None, None, 0, 'StoreTrue'),
        'threshold': (('--threshold',), 0.0, 'float', None, None, 'Store'),
    },
    'profile': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'design': ((), None, None, None, None, 'Store'),
        'batch': (('--batch', '-n'), 64, 'int', None, None, 'Store'),
        'cycles': (('--cycles', '-c'), 100, 'int', None, None, 'Store'),
        'seed': (('--seed',), 0, 'int', None, None, 'Store'),
        'executor': (('--executor',), 'graph-fused', None, EXECUTORS, None, 'Store'),
        'mcmc_iters': (('--mcmc-iters',), 0, 'int', None, None, 'Store'),
        'top': (('--top',), 12, 'int', None, None, 'Store'),
        'timeline': (('--timeline',), False, None, None, 0, 'StoreTrue'),
        'trace_json': (('--trace-json',), None, None, None, None, 'Store'),
        'metrics_json': (('--metrics-json',), None, None, None, None, 'Store'),
    },
    'run': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'design': ((), None, None, None, None, 'Store'),
        'batch': (('--batch', '-n'), 64, 'int', None, None, 'Store'),
        'cycles': (('--cycles', '-c'), 200, 'int', None, None, 'Store'),
        'seed': (('--seed',), 0, 'int', None, None, 'Store'),
        'executor': (('--executor',), 'graph-fused', None, EXECUTORS, None, 'Store'),
        'groups': (('--groups',), 1, 'int', None, None, 'Store'),
        'fault_isolation': (('--fault-isolation',), False, None, None, 0, 'StoreTrue'),
        'checkpoint_dir': (('--checkpoint-dir',), None, None, None, None, 'Store'),
        'checkpoint_every': (('--checkpoint-every',), 0, 'int', None, None, 'Store'),
        'checkpoint_every_seconds': (('--checkpoint-every-seconds',), 0.0, 'float', None, None, 'Store'),
        'keep_checkpoints': (('--keep-checkpoints',), 2, 'int', None, None, 'Store'),
        'resume': (('--resume',), False, None, None, 0, 'StoreTrue'),
        'inject_lane_fault': (('--inject-lane-fault',), [], None, None, None, 'Append'),
        'inject_checkpoint_failure': (('--inject-checkpoint-failure',), [], 'int', None, None, 'Append'),
        'fault_report': (('--fault-report',), None, None, None, None, 'Store'),
        'verify': (('--verify',), False, None, None, 0, 'StoreTrue'),
        'trace_json': (('--trace-json',), None, None, None, None, 'Store'),
        'metrics_json': (('--metrics-json',), None, None, None, None, 'Store'),
    },
    'campaign': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'design': ((), None, None, None, None, 'Store'),
        'batch': (('--batch', '-n'), 256, 'int', None, None, 'Store'),
        'cycles': (('--cycles', '-c'), 200, 'int', None, None, 'Store'),
        'seed': (('--seed',), 0, 'int', None, None, 'Store'),
        'executor': (('--executor',), 'graph-fused', None, EXECUTORS, None, 'Store'),
        'workers': (('--workers', '-w'), 2, 'int', None, None, 'Store'),
        'shard_lanes': (('--shard-lanes',), None, 'int', None, None, 'Store'),
        'coverage': (('--coverage',), False, None, None, 0, 'StoreTrue'),
        'fault_isolation': (('--fault-isolation',), False, None, None, 0, 'StoreTrue'),
        'checkpoint_dir': (('--checkpoint-dir',), None, None, None, None, 'Store'),
        'checkpoint_every': (('--checkpoint-every',), 0, 'int', None, None, 'Store'),
        'checkpoint_every_seconds': (('--checkpoint-every-seconds',), 0.0, 'float', None, None, 'Store'),
        'store': (('--store',), None, None, None, None, 'Store'),
        'heartbeat_timeout': (('--heartbeat-timeout',), None, 'float', None, None, 'Store'),
        'max_restarts': (('--max-restarts',), 3, 'int', None, None, 'Store'),
        'inject_lane_fault': (('--inject-lane-fault',), [], None, None, None, 'Append'),
        'inject_worker_crash': (('--inject-worker-crash',), [], None, None, None, 'Append'),
        'fault_report': (('--fault-report',), None, None, None, None, 'Store'),
        'verify': (('--verify',), False, None, None, 0, 'StoreTrue'),
        'trace_json': (('--trace-json',), None, None, None, None, 'Store'),
        'metrics_json': (('--metrics-json',), None, None, None, None, 'Store'),
    },
    'serve': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'data_dir': (('--data-dir',), None, None, None, None, 'Store'),
        'host': (('--host',), '127.0.0.1', None, None, None, 'Store'),
        'port': (('--port',), 8463, 'int', None, None, 'Store'),
        'workers': (('--workers', '-w'), 2, 'int', None, None, 'Store'),
        'shard_lanes': (('--shard-lanes',), None, 'int', None, None, 'Store'),
        'max_queued_shards': (('--max-queued-shards',), 1024, 'int', None, None, 'Store'),
        'tenant_inflight_cap': (('--tenant-inflight-cap',), None, 'int', None, None, 'Store'),
        'store_max_bytes': (('--store-max-bytes',), None, 'int', None, None, 'Store'),
        'store_max_entries': (('--store-max-entries',), None, 'int', None, None, 'Store'),
        'max_restarts': (('--max-restarts',), 3, 'int', None, None, 'Store'),
    },
    'submit': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'design': ((), None, None, None, None, 'Store'),
        'batch': (('--batch', '-n'), 256, 'int', None, None, 'Store'),
        'cycles': (('--cycles', '-c'), 200, 'int', None, None, 'Store'),
        'seed': (('--seed',), 0, 'int', None, None, 'Store'),
        'executor': (('--executor',), 'graph-fused', None, EXECUTORS, None, 'Store'),
        'inject_lane_fault': (('--inject-lane-fault',), [], None, None, None, 'Append'),
        'tenant': (('--tenant',), 'default', None, None, None, 'Store'),
        'weight': (('--weight',), 1.0, 'float', None, None, 'Store'),
        'wait': (('--wait',), False, None, None, 0, 'StoreTrue'),
        'timeout': (('--timeout',), 300.0, 'float', None, None, 'Store'),
        'status_json': (('--status-json',), None, None, None, None, 'Store'),
        'url': (('--url',), 'http://127.0.0.1:8463', None, None, None, 'Store'),
    },
    'jobs': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'tenant': (('--tenant',), None, None, None, None, 'Store'),
        'json': (('--json',), False, None, None, 0, 'StoreTrue'),
        'url': (('--url',), 'http://127.0.0.1:8463', None, None, None, 'Store'),
    },
    'result': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'job': ((), None, None, None, None, 'Store'),
        'json': (('--json',), False, None, None, 0, 'StoreTrue'),
        'url': (('--url',), 'http://127.0.0.1:8463', None, None, None, 'Store'),
    },
    'cancel': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
        'job': ((), None, None, None, None, 'Store'),
        'url': (('--url',), 'http://127.0.0.1:8463', None, None, None, 'Store'),
    },
    'designs': {
        'help': (('-h', '--help'), '==SUPPRESS==', None, None, 0, 'Help'),
    },
}

#: Optional flags that argparse itself requires.
REQUIRED = {
    "transpile": {"top"}, "simulate": {"top"}, "coverage": {"top"},
    "serve": {"data_dir"},
}

#: Subcommands whose run honours ``--trace-json``/``--metrics-json``
#: through the shared telemetry capture (``profile`` writes its own).
AUTO_TELEMETRY = {"simulate", "coverage", "run", "campaign"}


def _subparsers():
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _row(action):
    choices = tuple(action.choices) if action.choices is not None else None
    return (tuple(action.option_strings), action.default,
            getattr(action.type, "__name__", action.type), choices,
            action.nargs, type(action).__name__[1:-len("Action")])


def test_subcommands():
    assert list(_subparsers()) == list(INVENTORY)


def test_every_option_is_pinned():
    for name, parser in _subparsers().items():
        got = {a.dest: _row(a) for a in parser._actions}
        assert got == INVENTORY[name], name


def test_required_options():
    for name, parser in _subparsers().items():
        got = {a.dest for a in parser._actions
               if a.option_strings and a.required}
        assert got == REQUIRED.get(name, set()), name


def test_auto_telemetry_commands():
    got = {name for name, parser in _subparsers().items()
           if parser.get_default("_auto_telemetry")}
    assert got == AUTO_TELEMETRY

"""Time lorapro's set-up in a fresh interpreter.

Run by ``perfbench/run.py`` once per set-up sample. Reads one JSON request on
standard input::

    {"src": "<path of src/>", "config": "<config text>", "methods": [...],
     "suite": true}

and prints one JSON line with the seconds spent importing lorapro (and the
selfcheck suite when ``suite`` is true), parsing the config, building the
tasks, and building one ``harness.Trainer`` per method (tasks included).
``total_s`` is the set-up a user of the workload pays: the import alone when
``suite`` is true, since ``run_selfcheck`` needs no config, and all of it
otherwise.
"""

import json
import sys
import time


def main() -> None:
    request = json.loads(sys.stdin.read())
    clock = time.perf_counter
    start = clock()
    sys.path.insert(0, request["src"])
    import lorapro  # noqa: F401
    from lorapro import config, harness

    if request["suite"]:
        from lorapro import selfcheck  # noqa: F401
    imported = clock()
    cfg = config.parse_config_text(request["config"])
    parsed = clock()

    build_task = harness.build_task
    task_seconds = []

    def timed_build_task(*args, **kwargs):
        began = clock()
        try:
            return build_task(*args, **kwargs)
        finally:
            task_seconds.append(clock() - began)

    harness.build_task = timed_build_task
    trainers = [harness.Trainer(cfg.with_overrides(method=m)) for m in request["methods"]]
    built = clock()
    harness.build_task = build_task
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "parse_s": parsed - imported,
                "tasks_s": sum(task_seconds),
                "trainers_s": built - parsed,
                "total_s": (imported if request["suite"] else built) - start,
                "trainers": len(trainers),
            }
        )
    )


if __name__ == "__main__":
    main()

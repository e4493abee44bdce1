"""Service throughput: concurrent tenants on one shared fleet (PR 9).

Not a figure from the paper — the figure the service architecture
implies: one daemon, N concurrent client sessions, graphs/sec as N
grows.  Every submission is analysed in a private dependency domain
with its own lock, so independent tenants share nothing but the
fleet, and the acceptance criterion is a throughput *ratio*: two concurrent sessions must reach
>= 1.5x the graphs/sec of one session on a >= 4-worker fleet.

The ratio assertion only runs on hosts with enough cores to express
concurrency (4 workers + N clients + the connection readers need >= 5); on
smaller hosts the run still regenerates the figure — with every
client's results verified against the sequential oracle inside the
experiment — and records ``cpu_count`` in extras so the committed
baseline is honest about what it could measure.
"""

import os

from conftest import is_quick

from repro.bench import experiments as E


def _params():
    if is_quick():
        return dict(clients=(1, 2), graphs_per_client=5, tasks_per_graph=4, n=24)
    return dict(clients=(1, 2, 4), graphs_per_client=12, tasks_per_graph=8, n=48)


def test_service_throughput(benchmark, figure_printer):
    fig = benchmark.pedantic(
        lambda: E.service_throughput(**_params()),
        rounds=1, iterations=1,
    )
    figure_printer(fig)
    if is_quick():
        return

    if (os.cpu_count() or 1) < 5:
        # Too few cores for concurrency to pay: correctness was still
        # verified per client, and extras record the host shape.
        return

    clients = fig.x
    ratio = fig.get("throughput vs 1 client").values
    i2 = clients.index(2)
    # Acceptance criterion: 2 concurrent sessions >= 1.5x one session.
    assert ratio[i2] >= 1.5, (
        f"2 clients reached only {ratio[i2]:.2f}x of 1-client throughput"
    )
    # More tenants must never collapse below the single-client rate.
    assert min(ratio) >= 0.9

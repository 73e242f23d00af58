"""Quickstart: transpile a Verilog counter and simulate 1024 stimulus at once.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import RTLFlow

COUNTER_V = """
module counter #(parameter W = 8) (
    input wire clk,
    input wire rst,
    input wire en,
    output wire [W-1:0] count
);
    reg [W-1:0] q;
    always @(posedge clk) begin
        if (rst) q <= 0;
        else if (en) q <= q + 1;
    end
    assign count = q;
endmodule
"""


def main() -> None:
    # 1. The full RTLflow pipeline: parse -> elaborate -> partition ->
    #    transpile to batch kernels -> compile.
    flow = RTLFlow.from_source(COUNTER_V, top="counter")
    print("RTL graph:", flow.graph.stats())

    # 2. One simulator instance runs N stimulus simultaneously: each lane
    #    of every numpy array below is an independent simulation.
    n = 1024
    sim = flow.simulator(n=n)  # the fused CUDA-Graph engine by default

    # 3. Drive it like Listing 1 of the paper: set inputs, toggle clock.
    rng = np.random.default_rng(0)
    sim.set_inputs({"rst": 1, "en": 0})
    sim.cycle()
    enables = rng.integers(0, 2, size=n, dtype=np.uint64)
    sim.set_inputs({"rst": 0, "en": enables})
    cycles = 100
    for _ in range(cycles):
        sim.cycle()

    counts = sim.get("count")
    # Lanes with en=1 counted every cycle; lanes with en=0 stayed at zero.
    expect = np.where(enables == 1, cycles % 256, 0)
    assert np.array_equal(counts, expect)
    print(f"simulated {n} stimulus x {cycles} cycles; "
          f"first 8 final counts: {counts[:8]}")

    # 4. Peek at the generated kernel source (Listing 3's Python analog).
    model = flow.compile()
    print("\n--- generated kernel module (head) ---")
    print("\n".join(model.source.splitlines()[:28]))


if __name__ == "__main__":
    main()

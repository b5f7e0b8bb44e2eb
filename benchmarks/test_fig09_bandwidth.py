"""Figure 9: network and PCIe bandwidth usage per benchmark.

Paper result: frame traffic to the client stays under ~600 Mbps (below 5G
and 10G broadband capacity), input traffic is negligible (~1.5 Mbps), all
benchmarks use well under the 31.5 GB/s PCIe 3 budget, the GPU→CPU
direction (frame readback) dominates, and only SuperTuxKart pushes
substantial CPU→GPU upload traffic.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments.figures import run_figure


def test_fig09_bandwidth(benchmark, config, suite):
    rows = benchmark.pedantic(
        lambda: run_figure("fig09", config, suite), rounds=1, iterations=1)

    emit("Figure 9: network and PCIe bandwidth usage (single instance)",
         ["bench", "net send (Mbps)", "net recv (Mbps)",
          "PCIe to GPU (GB/s)", "PCIe from GPU (GB/s)"],
         [[row["benchmark"], f"{row['network_send_mbps']:.0f}",
           f"{row['network_receive_mbps']:.2f}", f"{row['pcie_to_gpu_gbps']:.3f}",
           f"{row['pcie_from_gpu_gbps']:.2f}"] for row in rows],
         notes="Paper: frame traffic < 600 Mbps, PCIe < 5 GB/s, "
               "readback (from GPU) dominates; STK is the upload outlier.")

    by_name = {row["benchmark"]: row for row in rows}
    for row in rows:
        assert row["network_send_mbps"] < 600.0
        assert row["network_receive_mbps"] < 10.0
        assert row["pcie_from_gpu_gbps"] < 5.0
        assert row["pcie_from_gpu_gbps"] > row["pcie_to_gpu_gbps"] * 0.9
    # SuperTuxKart streams far more data to the GPU than any other benchmark.
    stk_upload = by_name["STK"]["pcie_to_gpu_gbps"]
    assert all(stk_upload > 2.0 * row["pcie_to_gpu_gbps"]
               for row in rows if row["benchmark"] != "STK")

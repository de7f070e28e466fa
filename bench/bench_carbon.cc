// E19 — Energy and CO2 scale with FLOPs, hardware efficiency, PUE, and
// region; carbon-aware placement cuts emissions (Section 4.3,
// ML-Emissions-Calculator-style).

#include "bench/report.h"
#include "src/green/energy.h"
#include "src/nn/train.h"

int main() {
  using namespace dlsys;
  auto hardware = StandardHardware();
  auto regions = StandardRegions();

  using bench::kExact;
  bench::Report report("carbon");
  report.Print("E19a: footprint grid — one job (1e18 FLOPs) across "
               "hardware x region (kg CO2)\n");
  std::vector<bench::Column> grid_columns = {{"hardware\\region", "%-16s"}};
  for (const auto& r : regions) grid_columns.push_back({r.name, "%14.2f"});
  grid_columns.push_back({"GF/W", " (%.1f GF/W,", kExact, ""});
  grid_columns.push_back({"hours", "%.1f h)", kExact, ""});
  bench::Table& grid = report.AddTable("E19a", grid_columns);
  TrainingJob job{1e18};
  for (const auto& hw : hardware) {
    std::vector<bench::Table::Value> row = {hw.name};
    for (const auto& r : regions) {
      auto fp = EstimateFootprint(job, hw, r);
      row.push_back(fp.ok() ? fp->co2_grams / 1e3 : -1.0);
    }
    row.push_back(hw.FlopsPerWatt() / 1e9);
    row.push_back(job.total_flops / hw.EffectiveFlops() / 3600.0);
    grid.AddRow(row);
  }

  report.Print("\nE19b: model-size sweep on gpu-high / mixed-grid "
               "(1M examples x 100 epochs)\n");
  bench::Table& sizes = report.AddTable(
      "E19b", {{"model", "%-14s"}, {"flops", "%14.3g"}, {"kWh", "%12.3g"},
               {"kg_CO2", "%12.3g"}});
  for (int64_t width : {512, 2048, 8192}) {
    Sequential net = MakeMlp(256, {width, width, width}, 16);
    TrainingJob j = TrainingJob::ForNetwork(net, 1000000, 100);
    auto fp = EstimateFootprint(j, hardware[2], regions[0]);
    if (!fp.ok()) return 1;
    sizes.Row("mlp-3x" + std::to_string(width), j.total_flops,
              fp->facility_kwh, fp->co2_grams / 1e3);
  }

  report.Print("\nE19c: placement policies for the 1e18-FLOP job\n");
  auto naive = FastestPlacement(job, hardware, regions);
  auto aware_loose = CarbonAwarePlacement(job, hardware, regions, 1e9);
  if (!naive.ok() || !aware_loose.ok()) return 1;
  bench::Table& placements = report.AddTable(
      "E19c", {{"policy", "%-24s"}, {"hardware", "%-16s"}, {"region", "%-14s"},
               {"hours", "%10.1f"}, {"kg_CO2", "%12.2f"}});
  auto print = [&](const char* policy, const Placement& p) {
    placements.Row(policy,
                   hardware[static_cast<size_t>(p.hardware_index)].name,
                   regions[static_cast<size_t>(p.region_index)].name,
                   p.footprint.runtime_seconds / 3600.0,
                   p.footprint.co2_grams / 1e3);
  };
  print("fastest-first (naive)", *naive);
  print("carbon-aware (loose)", *aware_loose);
  const double fastest_runtime = naive->footprint.runtime_seconds;
  auto aware_tight =
      CarbonAwarePlacement(job, hardware, regions, fastest_runtime * 1.05);
  if (aware_tight.ok()) print("carbon-aware (tight)", *aware_tight);
  report.Print("\nexpected shape: CO2 spans >40x across the region axis "
               "alone; efficient hardware and clean regions compound; "
               "carbon-aware placement recovers most of that even under a "
               "deadline.\n");
  return report.Finish();
}

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/greedy_baselines.h"
#include "datagen/dataset.h"
#include "exp/harness.h"
#include "model/instance_io.h"
#include "sim/environment.h"
#include "tests/test_util.h"

namespace dpdp {
namespace {

using testing::MakeOrder;
using testing::MakeTestInstance;

TEST(InstanceIo, RoundTripPreservesEverything) {
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 7.5, 12.0, 200.0),
                        MakeOrder(1, 3, 4, 10.0, 30.0, 400.0)},
                       3);
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);

  const Result<Instance> loaded = LoadInstanceCsv(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Instance& inst = loaded.value();

  EXPECT_EQ(inst.name, original.name);
  EXPECT_EQ(inst.num_time_intervals, original.num_time_intervals);
  EXPECT_DOUBLE_EQ(inst.horizon_minutes, original.horizon_minutes);
  ASSERT_EQ(inst.num_orders(), original.num_orders());
  for (int i = 0; i < inst.num_orders(); ++i) {
    EXPECT_EQ(inst.orders[i].pickup_node, original.orders[i].pickup_node);
    EXPECT_EQ(inst.orders[i].delivery_node,
              original.orders[i].delivery_node);
    EXPECT_DOUBLE_EQ(inst.orders[i].quantity, original.orders[i].quantity);
    EXPECT_DOUBLE_EQ(inst.orders[i].create_time_min,
                     original.orders[i].create_time_min);
    EXPECT_DOUBLE_EQ(inst.orders[i].latest_time_min,
                     original.orders[i].latest_time_min);
  }
  EXPECT_EQ(inst.vehicle_depots, original.vehicle_depots);
  EXPECT_DOUBLE_EQ(inst.vehicle_config.capacity,
                   original.vehicle_config.capacity);
  EXPECT_DOUBLE_EQ(inst.vehicle_config.fixed_cost,
                   original.vehicle_config.fixed_cost);
  // Distance matrix round-trips exactly (precision 17 digits).
  for (int i = 0; i < inst.network->num_nodes(); ++i) {
    for (int j = 0; j < inst.network->num_nodes(); ++j) {
      EXPECT_DOUBLE_EQ(inst.network->Distance(i, j),
                       original.network->Distance(i, j));
    }
  }
  EXPECT_EQ(inst.network->num_depots(), original.network->num_depots());
}

TEST(InstanceIo, RoundTripOnGeneratedCampusInstance) {
  DpdpDataset dataset(StandardDatasetConfig(5, 80.0));
  const Instance original = dataset.SampleInstance("gen", 25, 8, 0, 2, 3);
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  const Result<Instance> loaded = LoadInstanceCsv(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_orders(), 25);
  EXPECT_EQ(loaded.value().num_vehicles(), 8);
  EXPECT_TRUE(ValidateInstance(loaded.value()).ok());
}

TEST(InstanceIo, FileRoundTrip) {
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  const std::string path = ::testing::TempDir() + "/dpdp_instance.csv";
  ASSERT_TRUE(SaveInstanceCsvFile(original, path).ok());
  const Result<Instance> loaded = LoadInstanceCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_orders(), 1);
}

TEST(InstanceIo, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadInstanceCsvFile("/nonexistent/never.csv").ok());
}

TEST(InstanceIo, LoadRejectsGarbage) {
  std::stringstream garbage("hello,world\n1,2,3\n");
  EXPECT_FALSE(LoadInstanceCsv(&garbage).ok());
}

TEST(InstanceIo, LoadRejectsUnknownSection) {
  std::stringstream bad("[wat]\na\n");
  const Result<Instance> r = LoadInstanceCsv(&bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceIo, LoadRejectsMalformedNumbers) {
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  std::string text = buffer.str();
  // Corrupt a quantity field.
  const size_t pos = text.find("[orders]");
  ASSERT_NE(pos, std::string::npos);
  text.replace(text.find("5,", pos), 2, "x,");
  std::stringstream corrupted(text);
  EXPECT_FALSE(LoadInstanceCsv(&corrupted).ok());
}

TEST(InstanceIo, LoadRejectsPartiallyNumericFields) {
  // "12x" must not silently parse as 12 (std::stoi would accept it).
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  std::string text = buffer.str();
  const size_t pos = text.find("[orders]");
  ASSERT_NE(pos, std::string::npos);
  const size_t field = text.find("10,", pos);  // create_min column.
  ASSERT_NE(field, std::string::npos);
  text.replace(field, 3, "10x,");
  std::stringstream corrupted(text);
  const Result<Instance> r = LoadInstanceCsv(&corrupted);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceIo, LoadRejectsTruncatedFile) {
  // Cutting the file mid-way leaves the distance matrix incomplete; the
  // loader must notice instead of defaulting missing entries to zero.
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  const std::string text = buffer.str();
  const size_t cut = text.find("[vehicle_config]");
  ASSERT_NE(cut, std::string::npos);
  // Keep the header and roughly half of the distance rows.
  const size_t dist = text.find("[distances]");
  ASSERT_NE(dist, std::string::npos);
  const size_t half = dist + (cut - dist) / 2;
  const size_t line_end = text.find('\n', half);
  ASSERT_NE(line_end, std::string::npos);
  std::stringstream truncated(text.substr(0, line_end + 1));
  const Result<Instance> r = LoadInstanceCsv(&truncated);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceIo, LoadRejectsDuplicateDistanceEntries) {
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  std::string text = buffer.str();
  const size_t dist = text.find("[distances]\nfrom,to,km\n");
  ASSERT_NE(dist, std::string::npos);
  const size_t first_row = dist + std::string("[distances]\nfrom,to,km\n")
                                      .size();
  const size_t first_end = text.find('\n', first_row);
  ASSERT_NE(first_end, std::string::npos);
  const std::string row = text.substr(first_row, first_end + 1 - first_row);
  text.insert(first_end + 1, row);  // Same (from,to) pair twice.
  std::stringstream duplicated(text);
  const Result<Instance> r = LoadInstanceCsv(&duplicated);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("duplicate"), std::string::npos)
      << r.status();
}

TEST(InstanceIo, LoadRejectsMissingMetaSection) {
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  std::string text = buffer.str();
  const size_t nodes = text.find("[nodes]");
  ASSERT_NE(nodes, std::string::npos);
  std::stringstream headless(text.substr(nodes));
  EXPECT_FALSE(LoadInstanceCsv(&headless).ok());
}

TEST(InstanceIo, LoadRejectsBinaryGarbage) {
  std::string blob = "\x7f""ELF\x01\x02\x03";
  blob.push_back('\0');
  blob += "\xff\xfe more bytes \x00\x01";
  std::stringstream garbage(blob);
  EXPECT_FALSE(LoadInstanceCsv(&garbage).ok());
}

TEST(InstanceIo, LoadToleratesCommentsAndBlankLines) {
  const Instance original =
      MakeTestInstance({MakeOrder(0, 1, 2, 5.0, 10.0, 200.0)});
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  const std::string text =
      "# exported by tests\n\n" + buffer.str() + "\n# trailing comment\n";
  std::stringstream annotated(text);
  EXPECT_TRUE(LoadInstanceCsv(&annotated).ok());
}

TEST(InstanceIo, LoadedInstanceSimulatesIdentically) {
  DpdpDataset dataset(StandardDatasetConfig(5, 60.0));
  const Instance original = dataset.SampleInstance("sim", 20, 6, 0, 1, 9);
  std::stringstream buffer;
  SaveInstanceCsv(original, &buffer);
  const Result<Instance> loaded = LoadInstanceCsv(&buffer);
  ASSERT_TRUE(loaded.ok());

  MinIncrementalLengthDispatcher b1;
  Environment sim_a(&original);
  Environment sim_b(&loaded.value());
  const EpisodeResult a = RunEpisode(&sim_a, &b1);
  const EpisodeResult b = RunEpisode(&sim_b, &b1);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.nuv, b.nuv);
}

}  // namespace
}  // namespace dpdp

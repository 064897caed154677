#include "src/core/streaming.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/common/atomic_file.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/core/attribute_inspection.h"
#include "src/core/relevant_intervals.h"
#include "src/core/rssc.h"

namespace p3c::core {

Result<BinaryDatasetReader> BinaryDatasetReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  Result<data::BinaryHeader> header = data::ReadBinaryHeader(f, path);
  long file_size = -1;
  if (header.ok() && std::fseek(f, 0, SEEK_END) == 0) {
    file_size = std::ftell(f);
  }
  std::fclose(f);
  if (!header.ok()) return header.status();
  if (file_size < 0) return Status::IOError("cannot stat: " + path);
  P3C_RETURN_NOT_OK(data::ValidateBinarySize(
      *header, static_cast<uint64_t>(file_size), path));
  return BinaryDatasetReader(path, *header);
}

Status BinaryDatasetReader::ForEachBlock(
    size_t block_rows,
    const std::function<Status(data::PointId, const data::Dataset&)>& fn)
    const {
  if (block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path_ + ": " +
                           std::strerror(errno));
  }
  if (std::fseek(f, static_cast<long>(header_.header_bytes), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("seek failed: " + path_);
  }
  Status status;
  uint64_t row = 0;
  // Running payload checksum: whole-file corruption detection amortized
  // over the pass, verified only when the pass reaches the end (a
  // callback abort leaves the tail unread).
  data::Hasher checksum;
  std::vector<double> buffer;
  while (row < header_.num_points) {
    const uint64_t rows =
        std::min<uint64_t>(block_rows, header_.num_points - row);
    buffer.resize(static_cast<size_t>(rows * header_.num_dims));
    if (std::fread(buffer.data(), sizeof(double), buffer.size(), f) !=
        buffer.size()) {
      status = Status::IOError("truncated payload: " + path_);
      break;
    }
    checksum.Update(buffer.data(), buffer.size() * sizeof(double));
    Result<data::Dataset> block = data::Dataset::FromRowMajor(
        std::move(buffer), static_cast<size_t>(header_.num_dims));
    if (!block.ok()) {
      status = block.status();
      break;
    }
    status = fn(static_cast<data::PointId>(row), *block);
    if (!status.ok()) break;
    buffer = std::vector<double>();  // FromRowMajor consumed it
    row += rows;
  }
  // v1 files carry no checksum.
  if (status.ok() && row >= header_.num_points && header_.version > 1) {
    const uint64_t computed = checksum.Digest();
    if (computed != header_.checksum) {
      status = Status::IOError(StringPrintf(
          "%s: payload checksum mismatch (header %016llx, computed %016llx): "
          "file is corrupt",
          path_.c_str(), static_cast<unsigned long long>(header_.checksum),
          static_cast<unsigned long long>(computed)));
    }
  }
  std::fclose(f);
  return status;
}

StreamingLightPipeline::StreamingLightPipeline(P3CParams params,
                                               size_t block_rows)
    : params_(params), block_rows_(std::max<size_t>(1, block_rows)) {
  params_.light = true;  // this pipeline IS the Light model
}

Result<StreamingLightResult> StreamingLightPipeline::Cluster(
    const std::string& binary_path) {
  return Run(binary_path, nullptr);
}

Result<StreamingLightResult> StreamingLightPipeline::ClusterAndAssign(
    const std::string& binary_path, const std::string& assignment_csv) {
  return Run(binary_path, &assignment_csv);
}

Result<StreamingLightResult> StreamingLightPipeline::Run(
    const std::string& binary_path, const std::string* assignment_csv) {
  Stopwatch watch;
  Result<BinaryDatasetReader> reader = BinaryDatasetReader::Open(binary_path);
  if (!reader.ok()) return reader.status();
  const uint64_t n = reader->num_points();
  const size_t d = static_cast<size_t>(reader->num_dims());
  if (n == 0 || d == 0) return Status::InvalidArgument("file is empty");

  StreamingLightResult result;
  result.num_points = n;
  result.num_dims = d;

  // ---- Pass 1: histograms ----------------------------------------------
  const size_t bins =
      static_cast<size_t>(stats::NumBins(params_.binning, n));
  std::vector<stats::Histogram> histograms(d, stats::Histogram(bins));
  Status pass = reader->ForEachBlock(
      block_rows_, [&](data::PointId first, const data::Dataset& block) {
        (void)first;
        // One kernel call bins the block and checks its range.
        if (stats::AddRows(histograms, block.values().data(),
                           block.num_points()) > 0) {
          return Status::InvalidArgument(
              "file contains values outside [0, 1]; normalize before "
              "writing");
        }
        return Status::OK();
      });
  P3C_RETURN_NOT_OK(pass);
  ++result.passes;

  // ---- Relevant intervals + cluster cores --------------------------------
  const std::vector<Interval> relevant =
      FindAllRelevantIntervals(histograms, params_.alpha_chi2);
  // First failed support scan. SupportCountFn returns a plain count
  // vector, so the counter cannot propagate a Status through
  // GenerateClusterCores/ProveSuggestedIntervals; it records the
  // failure here and Run checks after each call that consumes counts.
  // (Returning all-zero supports *without* recording the error used to
  // silently turn a mid-run I/O failure — truncation, corruption — into
  // "no clusters found".)
  Status counter_status;
  SupportCountFn counter = [&](const std::vector<Signature>& sigs) {
    std::vector<uint64_t> supports(sigs.size(), 0);
    if (sigs.empty()) return supports;
    if (before_support_scan_hook_) before_support_scan_hook_();
    const Rssc index(sigs);
    Rssc::Counter scan_counter(index, supports);
    Status scan = reader->ForEachBlock(
        block_rows_, [&](data::PointId first, const data::Dataset& block) {
          (void)first;
          scan_counter.Add(block, 0, block.num_points());
          return Status::OK();
        });
    scan_counter.Finish();
    if (!scan.ok()) {
      if (counter_status.ok()) counter_status = std::move(scan);
      supports.assign(sigs.size(), 0);
      return supports;
    }
    ++result.passes;
    return supports;
  };
  CoreDetectionResult detection =
      GenerateClusterCores(relevant, n, params_, counter, nullptr);
  P3C_RETURN_NOT_OK(counter_status);
  result.core_stats = detection.stats;
  if (detection.cores.empty()) {
    result.seconds = watch.ElapsedSeconds();
    return result;
  }
  const size_t k = detection.cores.size();
  std::vector<Signature> signatures;
  signatures.reserve(k);
  for (const auto& core : detection.cores) {
    signatures.push_back(core.signature);
  }
  const Rssc index(signatures);
  // Calls fn(i, m'(row i)) for every row i of a block, in row order.
  Rssc::Scratch scratch;
  std::vector<uint64_t> words(k);
  int32_t unique[64];
  auto for_each_unique_member = [&](const data::Dataset& block, auto&& fn) {
    for (size_t group = 0; group < block.num_points(); group += 64) {
      const size_t rows = std::min<size_t>(64, block.num_points() - group);
      index.Members(block, group, group + rows, scratch, words);
      Rssc::UniqueMembers(words, rows, unique);
      for (size_t r = 0; r < rows; ++r) fn(group + r, unique[r]);
    }
  };

  // ---- Pass: unique-member counts (m') -----------------------------------
  std::vector<uint64_t> unique_counts(k, 0);
  pass = reader->ForEachBlock(
      block_rows_, [&](data::PointId first, const data::Dataset& block) {
        (void)first;
        for_each_unique_member(block, [&](size_t i, int32_t c) {
          (void)i;
          if (c >= 0) ++unique_counts[static_cast<size_t>(c)];
        });
        return Status::OK();
      });
  P3C_RETURN_NOT_OK(pass);
  ++result.passes;

  // ---- Pass: unique-member histograms + per-attribute min/max ------------
  std::vector<std::vector<stats::Histogram>> member_histograms(k);
  for (size_t c = 0; c < k; ++c) {
    const size_t member_bins = static_cast<size_t>(stats::NumBins(
        params_.binning, std::max<uint64_t>(1, unique_counts[c])));
    member_histograms[c].assign(d, stats::Histogram(member_bins));
  }
  std::vector<std::vector<double>> mins(
      k, std::vector<double>(d, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<double>> maxs(
      k, std::vector<double>(d, -std::numeric_limits<double>::infinity()));
  pass = reader->ForEachBlock(
      block_rows_, [&](data::PointId first, const data::Dataset& block) {
        (void)first;
        for_each_unique_member(block, [&](size_t i, int32_t member) {
          if (member < 0) return;
          const auto c = static_cast<size_t>(member);
          const auto row = block.Row(static_cast<data::PointId>(i));
          (void)stats::AddRows(member_histograms[c], row.data(), 1);
          for (size_t j = 0; j < d; ++j) {
            mins[c][j] = std::min(mins[c][j], row[j]);
            maxs[c][j] = std::max(maxs[c][j], row[j]);
          }
        });
        return Status::OK();
      });
  P3C_RETURN_NOT_OK(pass);
  ++result.passes;

  // ---- Attribute inspection with AI proving (one support pass) ----------
  std::vector<std::vector<Interval>> suggestions(k);
  for (size_t c = 0; c < k; ++c) {
    if (unique_counts[c] == 0) continue;
    suggestions[c] = SuggestNewIntervals(
        detection.cores[c].signature, member_histograms[c],
        params_.alpha_chi2);
  }
  const std::vector<std::vector<Interval>> accepted =
      ProveSuggestedIntervals(detection.cores, suggestions, params_, counter);
  P3C_RETURN_NOT_OK(counter_status);

  // ---- Assemble clusters ---------------------------------------------------
  for (size_t c = 0; c < k; ++c) {
    StreamingCluster cluster;
    cluster.core = detection.cores[c].signature;
    cluster.support = detection.cores[c].support;
    cluster.unique_members = unique_counts[c];
    if (unique_counts[c] == 0) {
      cluster.attrs = cluster.core.attrs();
      cluster.intervals = cluster.core.intervals();
    } else {
      cluster.attrs = FinalAttributes(cluster.core, accepted[c]);
      cluster.intervals.reserve(cluster.attrs.size());
      for (size_t attr : cluster.attrs) {
        cluster.intervals.push_back(
            Interval{attr, mins[c][attr], maxs[c][attr]});
      }
    }
    result.clusters.push_back(std::move(cluster));
  }

  // ---- Optional assignment pass -------------------------------------------
  if (assignment_csv != nullptr) {
    AtomicFileWriter writer(*assignment_csv);
    P3C_RETURN_NOT_OK(writer.Open());
    std::FILE* out = writer.stream();
    std::fprintf(out, "point,cluster\n");
    pass = reader->ForEachBlock(
        block_rows_, [&](data::PointId first, const data::Dataset& block) {
          for_each_unique_member(block, [&](size_t i, int32_t member) {
            std::fprintf(out, "%llu,%d\n",
                         static_cast<unsigned long long>(first + i), member);
          });
          return Status::OK();
        });
    P3C_RETURN_NOT_OK(pass);
    P3C_RETURN_NOT_OK(writer.Commit());
    ++result.passes;
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::core

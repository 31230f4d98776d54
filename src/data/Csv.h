//===- data/Csv.h - CSV dataset I/O -----------------------------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal CSV reader/writer so the real UCI/MNIST files can be substituted
/// for the synthetic generators when available (see docs/ARCHITECTURE.md,
/// "Deviations from the paper").
///
/// Format: one row per line, comma-separated numeric feature values followed
/// by an integral class label in the last column. Lines beginning with '#'
/// and blank lines (including trailing ones) are skipped; CRLF line endings
/// are accepted and parse identically to LF. Malformed input — ragged rows,
/// trailing commas, stray carriage returns, non-numeric cells — is an error,
/// never a silent truncation. The loader infers Boolean columns (all values
/// in {0, 1}) unless a schema is supplied.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_DATA_CSV_H
#define ANTIDOTE_DATA_CSV_H

#include "data/Dataset.h"

#include <optional>
#include <string>

namespace antidote {

/// Outcome of a CSV load; `Error` is empty on success.
struct CsvLoadResult {
  std::optional<Dataset> Data;
  std::string Error;

  bool succeeded() const { return Data.has_value(); }
};

/// Parses CSV text into a dataset. If \p Schema is provided, rows must
/// conform to it; otherwise feature kinds and the class count are inferred.
CsvLoadResult parseCsvDataset(const std::string &Text,
                              const std::optional<DatasetSchema> &Schema =
                                  std::nullopt);

/// Loads a CSV dataset from \p Path.
CsvLoadResult loadCsvDataset(const std::string &Path,
                             const std::optional<DatasetSchema> &Schema =
                                 std::nullopt);

/// Renders \p Data in the accepted CSV format.
std::string writeCsvDataset(const Dataset &Data);

/// Writes \p Data to \p Path; returns false (and sets \p Error) on failure.
bool saveCsvDataset(const Dataset &Data, const std::string &Path,
                    std::string &Error);

} // namespace antidote

#endif // ANTIDOTE_DATA_CSV_H

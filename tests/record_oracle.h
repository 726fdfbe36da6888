// The record oracle: do two trials' records hold the same results? It walks
// RunRecord::ForEachField, the list the CTR store and the records CSV walk,
// so a field added there is compared with no edit here. The host counters
// are not on that list: they are telemetry, and a restored trial's differ
// from a booted one's.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "campaign/campaign.h"

namespace chaser::testutil {

/// Success when `got` holds `want`'s results; a failure names the first
/// field that differs, with both values (enums as numbers).
inline testing::AssertionResult SameRecord(const campaign::RunRecord& got,
                                           const campaign::RunRecord& want) {
  std::string differ;
  campaign::RunRecord::ForEachField(
      [&](const campaign::RecordField& field, auto member) {
        if (!differ.empty() || got.*member == want.*member) return;
        const auto print = [](const auto& v) {
          if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(v)>>) {
            return testing::PrintToString(static_cast<unsigned>(v));
          } else {
            return testing::PrintToString(v);
          }
        };
        differ = std::string(field.name) + " is " + print(got.*member) +
                 ", want " + print(want.*member);
      });
  if (differ.empty()) return testing::AssertionSuccess();
  return testing::AssertionFailure() << differ;
}

/// The same over two record lists, naming the first record that differs.
inline testing::AssertionResult SameRecords(
    const std::vector<campaign::RunRecord>& got,
    const std::vector<campaign::RunRecord>& want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << got.size() << " records, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    testing::AssertionResult same = SameRecord(got[i], want[i]);
    if (!same) {
      return testing::AssertionFailure() << "record " << i << ": "
                                         << same.message();
    }
  }
  return testing::AssertionSuccess();
}

}  // namespace chaser::testutil

// Trial journal: an append-only, checksummed log of RunRecords that fsyncs
// every record.
//
// Campaigns resume from their CTR store (store/ctr.h), so no product path
// writes a journal. What is left is the probe perfbench's traced pass times:
// one fsync'd append per committed trial, and a reopen that must replay
// exactly the records appended. The module goes together with that probe.
//
// On-disk format (integers varint-encoded unless noted):
//
//   header   magic "CHSJRNL1", version 6, campaign_seed, app (len+bytes),
//            shard_index, shard_count (always 0 and 1)
//   record*  a net/frame.h frame whose payload is the varint-serialised
//            RunRecord
//
// Every Append is flushed and fsync'd before it returns, so a record is
// either wholly on disk or not there at all. Reopening a journal replays
// the intact frame prefix and cuts a torn tail off before appending.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace chaser::campaign {

class TrialJournal {
 public:
  /// Open `path` for appending, creating it with a header naming this
  /// campaign if absent. An existing journal must be a v6 journal of the
  /// same `campaign_seed` and `app` (ConfigError otherwise); its torn tail
  /// is cut off and its intact records are returned via `replayed`.
  TrialJournal(const std::string& path, std::uint64_t campaign_seed,
               const std::string& app, std::vector<RunRecord>* replayed);
  ~TrialJournal();

  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

  /// Frame, checksum, append, flush, fsync. The record is durable when this
  /// returns. Throws ConfigError on write failure.
  void Append(const RunRecord& rec);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace chaser::campaign

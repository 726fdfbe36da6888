// ParallelCampaign is the campaign driver, campaign::Campaign, whose Run()
// already spreads trials over a worker pool (campaign/campaign.h). The alias
// stays for callers that still use the old name.
#pragma once

#include "campaign/campaign.h"

namespace chaser::campaign {

using ParallelCampaign = Campaign;

}  // namespace chaser::campaign

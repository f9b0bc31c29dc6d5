#include "core/ranking.h"

#include <algorithm>

namespace adahealth {
namespace core {

using common::Status;
using common::StatusOr;

namespace {

/// Blend weight of direct item feedback vs. base quality.
constexpr double kFeedbackWeight = 0.5;
/// Weight of the kind-level bias learned from feedback.
constexpr double kKindBiasWeight = 0.2;
/// Weight of the goal-level bias learned from feedback.
constexpr double kGoalBiasWeight = 0.2;

}  // namespace

Status KnowledgeRanker::AddItems(const std::vector<KnowledgeItem>& items) {
  for (const KnowledgeItem& item : items) {
    if (item.id.empty()) {
      return common::InvalidArgumentError("knowledge item with empty id");
    }
    if (items_.contains(item.id)) {
      return common::AlreadyExistsError("duplicate knowledge item id: " +
                                        item.id);
    }
  }
  for (const KnowledgeItem& item : items) {
    Entry entry;
    entry.item = item;
    items_.emplace(item.id, std::move(entry));
  }
  return common::OkStatus();
}

Status KnowledgeRanker::RecordFeedback(const std::string& item_id,
                                       Interest interest) {
  auto it = items_.find(item_id);
  if (it == items_.end()) {
    return common::NotFoundError("unknown knowledge item: " + item_id);
  }
  Entry& entry = it->second;
  double value = InterestValue(interest);
  entry.feedback_value =
      (entry.feedback_value * static_cast<double>(entry.feedback_count) +
       value) /
      static_cast<double>(entry.feedback_count + 1);
  ++entry.feedback_count;
  entry.has_feedback = true;
  entry.item.interest = interest;

  auto& kind = kind_feedback_[entry.item.kind];
  kind.first += value;
  ++kind.second;
  auto& goal = goal_feedback_[static_cast<int32_t>(entry.item.goal)];
  goal.first += value;
  ++goal.second;
  return common::OkStatus();
}

double KnowledgeRanker::Score(const Entry& entry) const {
  double score = entry.item.quality;
  if (entry.has_feedback) {
    score = (1.0 - kFeedbackWeight) * score +
            kFeedbackWeight * entry.feedback_value;
  }
  // Kind/goal biases center on 0.5 (the neutral "medium" value) so
  // that feedback below medium demotes whole families of items.
  auto kind_it = kind_feedback_.find(entry.item.kind);
  if (kind_it != kind_feedback_.end() && kind_it->second.second > 0) {
    double mean =
        kind_it->second.first / static_cast<double>(kind_it->second.second);
    score += kKindBiasWeight * (mean - 0.5);
  }
  auto goal_it =
      goal_feedback_.find(static_cast<int32_t>(entry.item.goal));
  if (goal_it != goal_feedback_.end() && goal_it->second.second > 0) {
    double mean =
        goal_it->second.first / static_cast<double>(goal_it->second.second);
    score += kGoalBiasWeight * (mean - 0.5);
  }
  return score;
}

StatusOr<double> KnowledgeRanker::ScoreOf(const std::string& item_id) const {
  auto it = items_.find(item_id);
  if (it == items_.end()) {
    return common::NotFoundError("unknown knowledge item: " + item_id);
  }
  return Score(it->second);
}

std::vector<KnowledgeItem> KnowledgeRanker::Ranked() const {
  std::vector<std::pair<double, const Entry*>> scored;
  scored.reserve(items_.size());
  for (const auto& [id, entry] : items_) {
    scored.emplace_back(Score(entry), &entry);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->item.id < b.second->item.id;
            });
  std::vector<KnowledgeItem> ranked;
  ranked.reserve(scored.size());
  for (const auto& [score, entry] : scored) ranked.push_back(entry->item);
  return ranked;
}

}  // namespace core
}  // namespace adahealth
